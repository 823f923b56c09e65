//! Crash-recovering pipelines: §1's checkpoint contract, live.
//!
//! "The data in a passive representation should be sufficient to enable
//! the Eject they represent to re-construct itself in a consistent state"
//! — and "if a passive eject is sent an invocation, the Eden kernel will
//! activate it."
//!
//! A durable read cursor feeds a durable line-numbering filter. We
//! fail-stop both Ejects after *every* transfer; the stream completes
//! anyway, with no loss, no duplicates, and unbroken numbering — each
//! crash is healed by reactivation-on-invocation from the auto-checkpoint.
//!
//! Run with: `cargo run --example durable_pipeline`

use eden::core::op::ops;
use eden::core::Value;
use eden::filters::{DurableFilterEject, FilterSpec};
use eden::fs::{register_fs_types, FileEject};
use eden::kernel::{Kernel, ObsConfig};
use eden::transput::protocol::{Batch, TransferRequest};

fn main() {
    // Spans on, so the kernel's activate/stop events are kept to read back.
    let kernel = Kernel::builder()
        .observability(ObsConfig::full())
        .build();
    register_fs_types(&kernel);
    DurableFilterEject::register(&kernel);

    let file = kernel
        .spawn(Box::new(FileEject::from_lines(
            (1..=8).map(|i| format!("verse {i} of the ballad")),
        )))
        .expect("spawn file");
    let cursor = kernel
        .invoke(file, "OpenDurable", Value::Unit).wait()
        .expect("durable cursor")
        .as_uid()
        .expect("capability");
    let filter = kernel
        .spawn(Box::new(
            DurableFilterEject::new(FilterSpec::new("line-number"), cursor, 2)
                .expect("durable filter"),
        ))
        .expect("spawn filter");

    println!("== reading through crash after crash ==\n");
    let mut crashes = 0;
    loop {
        let batch = Batch::from_value(
            kernel
                .invoke(filter, ops::TRANSFER, TransferRequest::primary(2).to_value()).wait()
                .expect("transfer"),
        )
        .expect("batch");
        for line in &batch.items {
            println!("{}", line.as_str().unwrap_or("?"));
        }
        if batch.end {
            break;
        }
        // Murder both stages. The next Transfer resurrects them.
        kernel.crash(filter).expect("crash filter");
        kernel.crash(cursor).expect("crash cursor");
        crashes += 2;
        println!("  ... both Ejects crashed (total {crashes}); continuing ...");
    }

    let snapshot = kernel.metrics().snapshot();
    println!(
        "\n{} crashes survived; {} activations total ({} of them reactivations from checkpoints)",
        snapshot.crashes,
        snapshot.activations,
        snapshot.crashes // Every crash here led to exactly one reactivation.
    );
    println!(
        "stable store holds {} passive representation(s), {} bytes",
        kernel.stable_store().len(),
        kernel.stable_store().total_bytes()
    );
    println!("\nlast few kernel events:");
    let events = kernel.kernel_events();
    for event in &events[events.len().saturating_sub(6)..] {
        println!("  [{:>9.3} ms] {event}", event.at_ns() as f64 / 1e6);
    }
    kernel.shutdown();
}
