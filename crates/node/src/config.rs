//! Node configuration: `--key value` (or `--key=value`) flags applied
//! over built-in defaults.
//!
//! One key table drives the parser, the startup banner and `--help`, so
//! the three cannot disagree: the banner is itself a command line that
//! parses back to the configuration it describes.

use pol_chainsim::{presets, ChainPreset, ExecutionMode};

/// A configuration error, naming the flag or value to fix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A key the table does not define.
    UnknownKey(String),
    /// A value that does not parse, or is out of range, for its key.
    BadValue {
        /// The key being set.
        key: String,
        /// The rejected value.
        value: String,
    },
    /// An unknown chain preset name.
    UnknownPreset(String),
    /// A flag without its value.
    MissingValue(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::UnknownKey(k) => write!(f, "unknown configuration key {k:?}"),
            ConfigError::BadValue { key, value } => {
                write!(f, "bad value {value:?} for key {key:?}")
            }
            ConfigError::UnknownPreset(p) => write!(
                f,
                "unknown chain preset {p:?} (expected goerli, ropsten, mumbai, algorand, \
                 devnet-evm or devnet-algo)"
            ),
            ConfigError::MissingValue(k) => write!(f, "flag --{k} is missing its value"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// The resolved node configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeConfig {
    /// Chain preset name (`goerli`, `ropsten`, `mumbai`, `algorand`,
    /// `devnet-evm`, `devnet-algo`).
    pub preset: String,
    /// RNG seed for the simulated chain.
    pub seed: u64,
    /// Block execution: `sequential` (the default), `parallel` or
    /// `parallel-static`. The default is the measured one: traced on a
    /// 2-vCPU Xeon @ 2.6 GHz (seed 7), block production costs 14.6 µs per
    /// committed transaction sequentially against 27.9 parallel and 31.2
    /// static on `area-hotspot`, and 3.3 / 5.0 / 5.0 on `report-storm`.
    /// The paper's workload is chains of conflicting calls (eight
    /// Zipf(1.0) areas, the hottest 0.37 of the inserts, then one
    /// verifier whose calls share a sender), so on two cores even a
    /// perfect conflict-aware schedule is bounded at 0.75 of sequential
    /// execution, before it resolves a claim or spawns a thread.
    pub execution: String,
    /// Worker threads for the parallel execution modes.
    pub workers: usize,
    /// Hard bound on open work: chain mempool plus parked transactions.
    pub mempool_capacity: usize,
    /// Virtual runtime of the service binary before graceful shutdown.
    pub duration_ms: u64,
    /// Funded accounts sending the binary's built-in transfer traffic:
    /// 0 turns it off, otherwise at least 2 so no transfer pays its own
    /// sender.
    pub local_users: usize,
    /// Rate of the built-in traffic, transactions per virtual second;
    /// finite and positive.
    pub local_rate: f64,
}

impl Default for NodeConfig {
    fn default() -> NodeConfig {
        NodeConfig {
            preset: "devnet-evm".to_string(),
            seed: 42,
            execution: "sequential".to_string(),
            workers: 4,
            mempool_capacity: 8_192,
            duration_ms: 60_000,
            local_users: 4,
            local_rate: 50.0,
        }
    }
}

/// One settable key: its flag name, a line of help, and how to read and
/// write its field. `set` returns `None` for a value it refuses.
struct Key {
    name: &'static str,
    help: &'static str,
    get: fn(&NodeConfig) -> String,
    set: fn(&mut NodeConfig, &str) -> Option<()>,
}

/// Every settable key, in banner order.
const KEYS: [Key; 8] = [
    Key {
        name: "preset",
        help: "chain preset: goerli, ropsten, mumbai, algorand, devnet-evm or devnet-algo",
        get: |c| c.preset.clone(),
        set: |c, v| {
            c.preset = v.to_string();
            Some(())
        },
    },
    Key {
        name: "seed",
        help: "RNG seed of the simulated chain",
        get: |c| c.seed.to_string(),
        set: |c, v| {
            c.seed = v.parse().ok()?;
            Some(())
        },
    },
    Key {
        name: "execution",
        help: "block execution: sequential, parallel or parallel-static",
        get: |c| c.execution.clone(),
        set: |c, v| {
            c.execution = v.to_string();
            Some(())
        },
    },
    Key {
        name: "workers",
        help: "worker threads of the parallel execution modes",
        get: |c| c.workers.to_string(),
        set: |c, v| {
            c.workers = v.parse().ok()?;
            Some(())
        },
    },
    Key {
        name: "mempool-capacity",
        help: "bound on open work, queued plus parked transactions",
        get: |c| c.mempool_capacity.to_string(),
        set: |c, v| {
            c.mempool_capacity = v.parse().ok()?;
            Some(())
        },
    },
    Key {
        name: "duration-ms",
        help: "virtual runtime before the graceful shutdown drain",
        get: |c| c.duration_ms.to_string(),
        set: |c, v| {
            c.duration_ms = v.parse().ok()?;
            Some(())
        },
    },
    Key {
        name: "local-users",
        help: "accounts sending built-in transfer traffic: 0 (off) or at least 2",
        get: |c| c.local_users.to_string(),
        set: |c, v| {
            c.local_users = v.parse().ok().filter(|&n| n != 1)?;
            Some(())
        },
    },
    Key {
        name: "local-rate",
        help: "built-in traffic rate, transactions per virtual second, finite and > 0",
        get: |c| c.local_rate.to_string(),
        set: |c, v| {
            c.local_rate = v.parse().ok().filter(|r: &f64| r.is_finite() && *r > 0.0)?;
            Some(())
        },
    },
];

impl NodeConfig {
    /// Applies `--key value` or `--key=value` flags, in order, over the
    /// defaults; a later flag overrides an earlier one.
    ///
    /// # Errors
    ///
    /// An unknown key, a flag without its value, a refused value or an
    /// unknown preset fails the whole parse: a misconfigured node must
    /// not start.
    pub fn from_args(args: &[String]) -> Result<NodeConfig, ConfigError> {
        let mut config = NodeConfig::default();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let flag =
                arg.strip_prefix("--").ok_or_else(|| ConfigError::UnknownKey(arg.clone()))?;
            let (name, value) = match flag.split_once('=') {
                Some((name, value)) => (name, value),
                None => (
                    flag,
                    args.next().ok_or_else(|| ConfigError::MissingValue(flag.into()))?.as_str(),
                ),
            };
            let key = KEYS
                .iter()
                .find(|k| k.name == name)
                .ok_or_else(|| ConfigError::UnknownKey(name.to_string()))?;
            (key.set)(&mut config, value).ok_or_else(|| ConfigError::BadValue {
                key: name.to_string(),
                value: value.to_string(),
            })?;
        }
        config.preset()?;
        config.execution_mode()?;
        Ok(config)
    }

    /// Instantiates the configured chain preset.
    ///
    /// # Errors
    ///
    /// [`ConfigError::UnknownPreset`] for a preset name the simulator
    /// does not ship.
    pub fn preset(&self) -> Result<ChainPreset, ConfigError> {
        Ok(match self.preset.as_str() {
            "goerli" => presets::goerli(),
            "ropsten" => presets::ropsten(),
            "mumbai" => presets::mumbai(),
            "algorand" => presets::algorand_testnet(),
            "devnet-evm" => presets::devnet_evm(),
            "devnet-algo" => presets::devnet_algo(),
            other => return Err(ConfigError::UnknownPreset(other.to_string())),
        })
    }

    /// The configured execution mode.
    ///
    /// # Errors
    ///
    /// [`ConfigError::BadValue`] for an execution name outside
    /// `sequential` / `parallel` / `parallel-static`.
    pub fn execution_mode(&self) -> Result<ExecutionMode, ConfigError> {
        let workers = self.workers.max(1);
        match self.execution.as_str() {
            "sequential" => Ok(ExecutionMode::Sequential),
            "parallel" => Ok(ExecutionMode::Parallel { workers }),
            "parallel-static" => Ok(ExecutionMode::ParallelStatic { workers }),
            other => Err(ConfigError::BadValue {
                key: "execution".to_string(),
                value: other.to_string(),
            }),
        }
    }

    /// The startup banner: one `--key value` line per key, a command
    /// line that [`NodeConfig::from_args`] reads back to `self`.
    pub fn describe(&self) -> String {
        KEYS.iter()
            .map(|k| format!("--{} {}", k.name, (k.get)(self)))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// The key table as `--help` text, with each key's default.
    pub fn help() -> String {
        let defaults = NodeConfig::default();
        KEYS.iter()
            .map(|k| format!("  --{:<18} {} (default {})", k.name, k.help, (k.get)(&defaults)))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<NodeConfig, ConfigError> {
        NodeConfig::from_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_resolve() {
        let config = parse(&[]).unwrap();
        assert_eq!(config, NodeConfig::default());
        assert_eq!(config.preset, "devnet-evm");
        assert!(config.preset().is_ok());
        assert_eq!(config.execution, "sequential");
        assert!(matches!(config.execution_mode(), Ok(ExecutionMode::Sequential)));
        assert_eq!(config.workers, 4);
    }

    #[test]
    fn cli_flags_override_defaults() {
        let config =
            parse(&["--seed", "7", "--workers=2", "--preset", "mumbai", "--seed=9"]).unwrap();
        // The later of two flags wins; untouched keys keep their defaults.
        assert_eq!(config.seed, 9);
        assert_eq!(config.workers, 2);
        assert_eq!(config.preset, "mumbai");
        assert_eq!(config.preset().unwrap().config.block_ms, presets::mumbai().config.block_ms);
        assert_eq!(config.mempool_capacity, NodeConfig::default().mempool_capacity);
        assert!(config.describe().contains("--seed 9"));
    }

    #[test]
    fn typed_errors_for_bad_input() {
        assert!(matches!(parse(&["--seed", "abc"]), Err(ConfigError::BadValue { .. })));
        assert!(matches!(parse(&["--bogus=1"]), Err(ConfigError::UnknownKey(_))));
        assert!(matches!(parse(&["seed"]), Err(ConfigError::UnknownKey(_))));
        assert!(matches!(parse(&["--seed"]), Err(ConfigError::MissingValue(_))));
        assert!(matches!(parse(&["--preset=testnet9"]), Err(ConfigError::UnknownPreset(_))));
        assert!(matches!(parse(&["--execution", "warp"]), Err(ConfigError::BadValue { .. })));
    }

    #[test]
    fn local_traffic_refuses_what_it_cannot_run() {
        for rate in ["NaN", "inf", "-inf", "-1", "0", "fast"] {
            assert_eq!(
                parse(&["--local-rate", rate]),
                Err(ConfigError::BadValue { key: "local-rate".into(), value: rate.into() }),
            );
        }
        assert_eq!(parse(&["--local-users", "0"]).unwrap().local_users, 0);
        assert_eq!(parse(&["--local-users=2", "--local-rate=0.5"]).unwrap().local_rate, 0.5);
    }

    #[test]
    fn banner_is_a_command_line_that_parses_back() {
        let custom = parse(&[
            "--preset=algorand",
            "--seed=7",
            "--execution=parallel-static",
            "--workers=3",
            "--mempool-capacity=12",
            "--duration-ms=2500",
            "--local-users=0",
            "--local-rate=12.25",
        ])
        .unwrap();
        assert_ne!(custom, NodeConfig::default());
        for config in [NodeConfig::default(), custom] {
            let banner = config.describe();
            let args: Vec<&str> = banner.split_whitespace().collect();
            assert_eq!(parse(&args).unwrap(), config, "{banner}");
        }
    }
}
