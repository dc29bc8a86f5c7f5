//! The hypercube DHT in isolation: location-keyed routing, the OLC →
//! r-bit dual encoding, complex (superset) queries over a region, and
//! behaviour under churn.
//!
//! ```sh
//! cargo run --example hypercube_queries
//! ```

use proof_of_location as pol;

use pol::geo::{olc, rbit, Coordinates};
use pol::hypercube::{query, Hypercube};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dht = Hypercube::new(6);
    println!("hypercube: r = {}, {} nodes", dht.dimensions(), 1u32 << dht.dimensions());

    // The paper's worked encoding example (Fig. 1.3).
    let code: pol::geo::OlcCode = "6PH57VP3+PR".parse()?;
    let key = rbit::encode(&code, 6);
    println!("\n{code} → segments {:?}", rbit::segments(&code));
    println!("{code} → r-bit key {key} (node {})", key.index());

    // Register contracts for a handful of nearby areas.
    let spots = [
        ("piazza", 44.4938, 11.3426),
        ("towers", 44.4946, 11.3466),
        ("station", 44.5056, 11.3430),
        ("park", 44.4854, 11.3550),
    ];
    for (i, (name, lat, lon)) in spots.iter().enumerate() {
        let code = olc::encode(Coordinates::new(*lat, *lon)?, 10)?;
        dht.register_contract(&code, format!("app:{}", i + 1))?;
        let route = dht.lookup(&code)?;
        println!("{name:<8} {code} → node {:>2} in {} hops", route.target().index(), route.hops());
    }
    let stats = dht.stats();
    println!(
        "routing: {} lookups, mean {:.2} hops, p50 {}, p99 {}, max {} (bound: r = {})",
        stats.lookups,
        stats.mean_hops(),
        stats.p50_hops(),
        stats.p99_hops(),
        stats.max_hops,
        dht.dimensions()
    );

    // A complex query: every record on nodes whose ID is a superset of a
    // sparse key — the region browse of the DApp.
    let probe = pol::geo::RBitKey::from_bits(0, 6);
    let result = query::superset_search(&dht, probe, 64);
    println!(
        "\nregion query visited {} nodes ({} messages) and found {} records",
        result.visited.len(),
        result.messages,
        result.records.len()
    );

    // Churn: kill the node responsible for the piazza, then recover.
    let piazza = olc::encode(Coordinates::new(44.4938, 11.3426)?, 10)?;
    let node = dht.key_for(&piazza);
    dht.fail_node(node);
    println!("\nnode {node} offline → lookup fails: {}", dht.find_contract(&piazza).is_err());
    dht.rejoin(node);
    println!("node {node} rejoined → contract: {:?}", dht.find_contract(&piazza)?);
    Ok(())
}
