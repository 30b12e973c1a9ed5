//! Figures 2/4/5 (and 6/7/8 with `--maintenance`) — per-iteration traces of
//! all algorithms on the paper's running example graph, printed in the same
//! row format the paper uses.
//!
//! ```sh
//! cargo run --release -p kcore-bench --bin fig2_trace
//! cargo run --release -p kcore-bench --bin fig2_trace -- --maintenance
//! ```

use graphstore::{AdjacencyRead, DynGraph, MemGraph, Result};
use kcore_bench::harness::Args;
use semicore::fixtures::paper_example_graph;
use semicore::localcore::{compute_cnt, local_core, Scratch};
use semicore::{
    semi_delete_star, semi_insert_star, semicore_star_state, DecomposeOptions, SparseMarks,
};

fn print_row(label: &str, core: &[u32]) {
    print!("{label:<12}");
    for c in core {
        print!(" {c:>2}");
    }
    println!();
}

/// Re-run SemiCore step by step, printing the estimate table per iteration
/// (Fig. 2).
fn trace_semicore(g: &mut MemGraph) -> Result<()> {
    println!("Fig. 2 — SemiCore trace");
    let n = g.num_nodes();
    let mut core = g.read_degrees()?;
    print_row("Init", &core);
    let mut nbrs = Vec::new();
    let mut scratch = Scratch::new();
    let mut iter = 0;
    loop {
        iter += 1;
        let mut update = false;
        for v in 0..n {
            g.adjacency(v, &mut nbrs)?;
            let cold = core[v as usize];
            let cnew = local_core(cold, &core, &nbrs, &mut scratch);
            if cnew != cold {
                core[v as usize] = cnew;
                update = true;
            }
        }
        print_row(&format!("Iteration {iter}"), &core);
        if !update {
            break;
        }
    }
    Ok(())
}

/// SemiCore* trace with cnt values (Fig. 5).
fn trace_star(g: &mut MemGraph) -> Result<()> {
    println!("\nFig. 5 — SemiCore* trace (computations per iteration in brackets)");
    let n = g.num_nodes();
    let mut core = g.read_degrees()?;
    let mut cnt = vec![0i32; n as usize];
    print_row("Init", &core);
    let mut nbrs = Vec::new();
    let mut scratch = Scratch::new();
    loop {
        let mut computed = 0;
        for v in 0..n {
            if (cnt[v as usize] as i64) < core[v as usize] as i64 {
                g.adjacency(v, &mut nbrs)?;
                let cold = core[v as usize];
                let cnew = local_core(cold, &core, &nbrs, &mut scratch);
                core[v as usize] = cnew;
                cnt[v as usize] = compute_cnt(cnew, &core, &nbrs) as i32;
                for &u in &nbrs {
                    let cu = core[u as usize];
                    if cu > cnew && cu <= cold {
                        cnt[u as usize] -= 1;
                    }
                }
                computed += 1;
            }
        }
        if computed == 0 {
            break;
        }
        print_row(&format!("[{computed} comp]"), &core);
    }
    Ok(())
}

fn trace_maintenance() -> Result<()> {
    let g = paper_example_graph();
    let mut dynamic = DynGraph::from_mem(&g);
    let (mut state, _) = semicore_star_state(&mut dynamic, &DecomposeOptions::default())?;
    println!("Fig. 6 — SemiDelete* (delete (v0, v1))");
    print_row("Old Value", &state.core);
    let st = semi_delete_star(&mut dynamic, &mut state, 0, 1)?;
    print_row("New Value", &state.core);
    println!(
        "  {} iterations, {} node computations\n",
        st.iterations, st.node_computations
    );

    println!("Fig. 8 — SemiInsert* (insert (v4, v6))");
    print_row("Old Value", &state.core);
    let mut marks = SparseMarks::new(9);
    let st = semi_insert_star(&mut dynamic, &mut state, &mut marks, 4, 6)?;
    print_row("New Value", &state.core);
    println!(
        "  {} iterations, {} node computations (paper: 2 iterations, 5 computations)",
        st.iterations, st.node_computations
    );
    Ok(())
}

fn main() -> Result<()> {
    let mut args = Args::parse();
    let maintenance = args.flag("maintenance");
    args.finish();
    println!("Running example graph (Fig. 1): v0..v8\n");
    if maintenance {
        return trace_maintenance();
    }
    let mut g = paper_example_graph();
    trace_semicore(&mut g)?;

    let d = semicore::semicore_plus(&mut g, &DecomposeOptions::default())?;
    println!(
        "\nFig. 4 — SemiCore+: {} iterations, {} node computations (paper: 23)",
        d.stats.iterations, d.stats.node_computations
    );

    trace_star(&mut g)?;
    let d = semicore::semicore_star(&mut g, &DecomposeOptions::default())?;
    println!(
        "SemiCore*: {} iterations, {} node computations (paper: 3 iterations, 11 computations)",
        d.stats.iterations, d.stats.node_computations
    );
    Ok(())
}
