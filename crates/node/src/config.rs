//! Layered node configuration: CLI flags > environment > config file >
//! defaults (the op-move `server/args/` pattern).
//!
//! Every knob is addressed by one kebab-case key (`mempool-capacity`)
//! that works identically across all three layers: `--mempool-capacity
//! 4096` on the command line, `POL_NODE_MEMPOOL_CAPACITY=4096` in the
//! environment, and `mempool-capacity = 4096` in a config file. The
//! resolved configuration remembers which layer supplied each key, so
//! the node can print an auditable startup banner.

use pol_chainsim::{presets, ChainPreset, ExecutionMode};
use std::collections::BTreeMap;
use std::path::Path;

/// Where a resolved configuration value came from (highest wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Layer {
    /// Built-in default.
    Default,
    /// `key = value` line in the config file.
    File,
    /// `POL_NODE_*` environment variable.
    Env,
    /// `--key value` command-line flag.
    Cli,
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Default => "default",
            Layer::File => "file",
            Layer::Env => "env",
            Layer::Cli => "cli",
        }
    }
}

/// A configuration error, with enough context to fix the offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The config file could not be read.
    Io(String),
    /// A config-file line was not `key = value` or a comment.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// A key no layer defines.
    UnknownKey(String),
    /// A value that does not parse for its key.
    BadValue {
        /// The key being set.
        key: String,
        /// The rejected value.
        value: String,
    },
    /// An unknown chain preset name.
    UnknownPreset(String),
    /// A CLI flag without its value.
    MissingValue(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Io(e) => write!(f, "config file unreadable: {e}"),
            ConfigError::Malformed { line, text } => {
                write!(f, "config line {line} is not `key = value`: {text:?}")
            }
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
#[derive(Debug, Clone)]
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
    /// Nonce-gap transactions parked per sender before admission refuses.
    pub max_parked_per_sender: usize,
    /// Virtual milliseconds between metrics snapshots.
    pub metrics_interval_ms: u64,
    /// Override of the preset's block interval (0 keeps the preset).
    pub block_ms: u64,
    /// Virtual runtime of the service binary before graceful shutdown.
    pub duration_ms: u64,
    /// Blocks the shutdown drain may produce before declaring stragglers
    /// lost.
    pub drain_block_limit: u64,
    origins: BTreeMap<&'static str, Layer>,
}

impl Default for NodeConfig {
    fn default() -> NodeConfig {
        NodeConfig {
            preset: "devnet-evm".to_string(),
            seed: 42,
            execution: "sequential".to_string(),
            workers: 4,
            mempool_capacity: 8_192,
            max_parked_per_sender: 16,
            metrics_interval_ms: 10_000,
            block_ms: 0,
            duration_ms: 60_000,
            drain_block_limit: 10_000,
            origins: BTreeMap::new(),
        }
    }
}

/// Every settable key, in display order.
const KEYS: [&str; 10] = [
    "preset",
    "seed",
    "execution",
    "workers",
    "mempool-capacity",
    "max-parked-per-sender",
    "metrics-interval-ms",
    "block-ms",
    "duration-ms",
    "drain-block-limit",
];

impl NodeConfig {
    /// Resolves the configuration from its three layers, lowest first:
    /// `file` (optional `key = value` lines, `#` comments), then
    /// `POL_NODE_*` environment variables looked up through `env`, then
    /// CLI flags (`--key value` or `--key=value`).
    ///
    /// # Errors
    ///
    /// Any unreadable file, malformed line, unknown key or unparseable
    /// value fails the whole resolution — a misconfigured node must not
    /// start with silently-defaulted knobs.
    pub fn layered(
        file: Option<&Path>,
        env: &dyn Fn(&str) -> Option<String>,
        cli: &[String],
    ) -> Result<NodeConfig, ConfigError> {
        let mut config = NodeConfig::default();
        if let Some(path) = file {
            let text = std::fs::read_to_string(path).map_err(|e| ConfigError::Io(e.to_string()))?;
            for (idx, raw) in text.lines().enumerate() {
                let line = raw.split('#').next().unwrap_or("").trim();
                if line.is_empty() {
                    continue;
                }
                let (key, value) = line
                    .split_once('=')
                    .ok_or_else(|| ConfigError::Malformed { line: idx + 1, text: raw.into() })?;
                config.apply(key.trim(), value.trim(), Layer::File)?;
            }
        }
        for key in KEYS {
            let var = format!("POL_NODE_{}", key.replace('-', "_").to_uppercase());
            if let Some(value) = env(&var) {
                config.apply(key, value.trim(), Layer::Env)?;
            }
        }
        let mut args = cli.iter();
        while let Some(arg) = args.next() {
            let flag =
                arg.strip_prefix("--").ok_or_else(|| ConfigError::UnknownKey(arg.clone()))?;
            let (key, value) = match flag.split_once('=') {
                Some((k, v)) => (k.to_string(), v.to_string()),
                None => {
                    let value =
                        args.next().ok_or_else(|| ConfigError::MissingValue(flag.into()))?;
                    (flag.to_string(), value.clone())
                }
            };
            config.apply(&key, &value, Layer::Cli)?;
        }
        // Fail fast on a preset typo, whatever layer it came from.
        config.preset()?;
        config.execution_mode()?;
        Ok(config)
    }

    fn apply(&mut self, key: &str, value: &str, layer: Layer) -> Result<(), ConfigError> {
        let bad = || ConfigError::BadValue { key: key.to_string(), value: value.to_string() };
        let canonical = match key {
            "preset" => {
                self.preset = value.to_string();
                "preset"
            }
            "seed" => {
                self.seed = value.parse().map_err(|_| bad())?;
                "seed"
            }
            "execution" => {
                self.execution = value.to_string();
                "execution"
            }
            "workers" => {
                self.workers = value.parse().map_err(|_| bad())?;
                "workers"
            }
            "mempool-capacity" => {
                self.mempool_capacity = value.parse().map_err(|_| bad())?;
                "mempool-capacity"
            }
            "max-parked-per-sender" => {
                self.max_parked_per_sender = value.parse().map_err(|_| bad())?;
                "max-parked-per-sender"
            }
            "metrics-interval-ms" => {
                self.metrics_interval_ms = value.parse().map_err(|_| bad())?;
                "metrics-interval-ms"
            }
            "block-ms" => {
                self.block_ms = value.parse().map_err(|_| bad())?;
                "block-ms"
            }
            "duration-ms" => {
                self.duration_ms = value.parse().map_err(|_| bad())?;
                "duration-ms"
            }
            "drain-block-limit" => {
                self.drain_block_limit = value.parse().map_err(|_| bad())?;
                "drain-block-limit"
            }
            _ => return Err(ConfigError::UnknownKey(key.to_string())),
        };
        self.origins.insert(canonical, layer);
        Ok(())
    }

    /// Instantiates the configured chain preset, with the `block-ms`
    /// override applied when set.
    ///
    /// # Errors
    ///
    /// [`ConfigError::UnknownPreset`] for a preset name the simulator
    /// does not ship.
    pub fn preset(&self) -> Result<ChainPreset, ConfigError> {
        let mut preset = match self.preset.as_str() {
            "goerli" => presets::goerli(),
            "ropsten" => presets::ropsten(),
            "mumbai" => presets::mumbai(),
            "algorand" => presets::algorand_testnet(),
            "devnet-evm" => presets::devnet_evm(),
            "devnet-algo" => presets::devnet_algo(),
            other => return Err(ConfigError::UnknownPreset(other.to_string())),
        };
        if self.block_ms > 0 {
            preset.config.block_ms = self.block_ms;
        }
        Ok(preset)
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

    /// The layer that decided `key` (defaults count as [`Layer::Default`]).
    pub(crate) fn origin(&self, key: &str) -> Layer {
        self.origins.get(key).copied().unwrap_or(Layer::Default)
    }

    /// One line per key — the startup banner showing every resolved value
    /// and the layer that supplied it.
    pub fn describe(&self) -> String {
        let value = |key: &str| -> String {
            match key {
                "preset" => self.preset.clone(),
                "seed" => self.seed.to_string(),
                "execution" => self.execution.clone(),
                "workers" => self.workers.to_string(),
                "mempool-capacity" => self.mempool_capacity.to_string(),
                "max-parked-per-sender" => self.max_parked_per_sender.to_string(),
                "metrics-interval-ms" => self.metrics_interval_ms.to_string(),
                "block-ms" => self.block_ms.to_string(),
                "duration-ms" => self.duration_ms.to_string(),
                "drain-block-limit" => self.drain_block_limit.to_string(),
                _ => unreachable!("KEYS is exhaustive"),
            }
        };
        KEYS.iter()
            .map(|k| format!("{k} = {} ({})", value(k), self.origin(k).name()))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_env(_: &str) -> Option<String> {
        None
    }

    #[test]
    fn defaults_resolve() {
        let config = NodeConfig::layered(None, &no_env, &[]).unwrap();
        assert_eq!(config.preset, "devnet-evm");
        assert_eq!(config.origin("seed"), Layer::Default);
        assert!(config.preset().is_ok());
        assert_eq!(config.execution, "sequential");
        assert_eq!(config.origin("execution"), Layer::Default);
        assert!(matches!(config.execution_mode(), Ok(ExecutionMode::Sequential)));
        assert_eq!(config.workers, 4);
    }

    #[test]
    fn cli_beats_env_beats_file() {
        let dir = std::env::temp_dir().join("pol-node-config-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("node.conf");
        std::fs::write(&path, "seed = 1\nworkers = 2 # from file\n\n# comment\npreset = mumbai\n")
            .unwrap();
        let env = |var: &str| match var {
            "POL_NODE_SEED" => Some("7".to_string()),
            "POL_NODE_MEMPOOL_CAPACITY" => Some("100".to_string()),
            _ => None,
        };
        let cli = vec!["--seed".to_string(), "9".to_string(), "--block-ms=500".to_string()];
        let config = NodeConfig::layered(Some(&path), &env, &cli).unwrap();
        // CLI wins over env over file; untouched keys keep lower layers.
        assert_eq!(config.seed, 9);
        assert_eq!(config.origin("seed"), Layer::Cli);
        assert_eq!(config.mempool_capacity, 100);
        assert_eq!(config.origin("mempool-capacity"), Layer::Env);
        assert_eq!(config.workers, 2);
        assert_eq!(config.origin("workers"), Layer::File);
        assert_eq!(config.preset, "mumbai");
        assert_eq!(config.preset().unwrap().config.block_ms, 500, "block-ms override applies");
        assert!(config.describe().contains("seed = 9 (cli)"));
    }

    #[test]
    fn typed_errors_for_bad_input() {
        assert!(matches!(
            NodeConfig::layered(None, &no_env, &["--seed".to_string(), "abc".to_string()]),
            Err(ConfigError::BadValue { .. })
        ));
        assert!(matches!(
            NodeConfig::layered(None, &no_env, &["--bogus=1".to_string()]),
            Err(ConfigError::UnknownKey(_))
        ));
        assert!(matches!(
            NodeConfig::layered(None, &no_env, &["--seed".to_string()]),
            Err(ConfigError::MissingValue(_))
        ));
        assert!(matches!(
            NodeConfig::layered(None, &no_env, &["--preset=testnet9".to_string()]),
            Err(ConfigError::UnknownPreset(_))
        ));
        let env = |var: &str| (var == "POL_NODE_EXECUTION").then(|| "warp".to_string());
        assert!(matches!(NodeConfig::layered(None, &env, &[]), Err(ConfigError::BadValue { .. })));
    }

    #[test]
    fn malformed_file_line_is_located() {
        let dir = std::env::temp_dir().join("pol-node-config-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("broken.conf");
        std::fs::write(&path, "seed = 1\nnot a pair\n").unwrap();
        assert_eq!(
            NodeConfig::layered(Some(&path), &no_env, &[]).err(),
            Some(ConfigError::Malformed { line: 2, text: "not a pair".to_string() })
        );
    }
}
