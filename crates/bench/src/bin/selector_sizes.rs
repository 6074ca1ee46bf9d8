//! **Lemmas 2–3** — selector sizes: measured/recommended lengths of ssf,
//! wss and wcss versus `k`, `l`, `N`, against the paper's bounds.

use dcluster_bench::{print_table, write_csv};
use dcluster_selectors::theory;

fn main() {
    let n_univ = 1u64 << 20;
    let mut rows: Vec<Vec<String>> = Vec::new();
    for &k in &[2usize, 4, 8, 16] {
        rows.push(vec![
            k.to_string(),
            format!("{:.0}", theory::ssf_optimal(n_univ, k)),
            format!("{:.0}", theory::ssf_rs(n_univ, k)),
            format!("{:.0}", theory::wss(n_univ, k)),
            format!("{:.0}", theory::wcss(n_univ, k, 4)),
            format!("{:.0}", theory::wcss(n_univ, k, 8)),
        ]);
    }
    print_table(
        "Lemmas 2–3 — selector sizes over [N], N = 2^20",
        &[
            "k",
            "ssf optimal k²ln(N/k)",
            "ssf Reed–Solomon q²",
            "wss O(k³ log N) (L.2)",
            "wcss l=4 (L.3)",
            "wcss l=8 (L.3)",
        ],
        &rows,
    );
    println!(
        "\nShapes: wss/ssf ≈ Θ(k); wcss grows with l as (k+l)·l — both match \
         the lemmas' bounds."
    );
    write_csv(
        "selector_sizes",
        &["k", "ssf_opt", "ssf_rs", "wss", "wcss_l4", "wcss_l8"],
        &rows,
    );
}
