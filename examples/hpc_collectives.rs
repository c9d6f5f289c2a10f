//! MPI collectives over RDMA: registration strategies compared (§6.2,
//! Figure 9).
//!
//! Runs IMB-style sendrecv/bcast/alltoall on an 8-node 56 Gb/s cluster
//! under three registration strategies: CPU copying through bounce
//! buffers, a pin-down cache, and on-demand paging.
//!
//! Run with: `cargo run --release --example hpc_collectives`

use npf_core::pinning::Strategy;
use simcore::ByteSize;
use testbed::mpi_run::{run_collective, MpiRunConfig};
use workloads::mpi::Collective;

fn main() {
    println!("8 ranks, 64 KB messages, IMB off-cache mode (16 rotating buffers)\n");
    println!(
        "{:>10} {:>12} {:>12} {:>12}",
        "collective", "copy", "pin-cache", "ODP/NPF"
    );
    for collective in [
        Collective::SendRecv,
        Collective::Bcast,
        Collective::AllToAll,
        Collective::AllReduce,
    ] {
        let mut cells = Vec::new();
        for strategy in [
            Strategy::Copy,
            Strategy::PinDownCache {
                capacity: ByteSize::mib(256),
            },
            Strategy::Odp,
        ] {
            let res = run_collective(MpiRunConfig {
                ranks: 8,
                message_bytes: 64 * 1024,
                iterations: 30,
                strategy,
                collective,
                seed: 21,
            });
            cells.push(format!("{:.1} us", res.per_iteration.as_micros_f64()));
        }
        println!(
            "{:>10} {:>12} {:>12} {:>12}",
            collective.name(),
            cells[0],
            cells[1],
            cells[2]
        );
    }
    println!("\nODP matches the pin-down cache without pinning a single page;");
    println!(
        "copying pays CPU bandwidth per byte (except allreduce, which reduces on the CPU anyway)"
    );
}
