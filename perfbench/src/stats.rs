//! Order statistics and the host-speed diagnostic kernel.

/// Median (mean of the two middle values for an even count); `None`
/// for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = values.to_vec();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    })
}

/// The smallest value; `None` for an empty sample. For repeated
/// identical work on a host that alternates between a fast and a slow
/// speed, it reads the fast-state time whenever any sample ran fast,
/// where a median or a low percentile flips with the share of slow
/// time.
pub fn min(values: &[f64]) -> Option<f64> {
    values.iter().copied().min_by(f64::total_cmp)
}

/// Geometric mean of positive values; `None` for an empty sample.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let logs: f64 = values.iter().map(|v| v.ln()).sum();
    Some((logs / values.len() as f64).exp())
}

/// A fixed CPU kernel owned by the benchmark: Floyd–Warshall over a
/// seeded 48x48 distance matrix. Timed between requests, its median
/// tells two sets of runs whether the host ran at another speed; it
/// never enters a metric.
pub fn kernel() -> i64 {
    const N: usize = 48;
    let mut d = [[0i64; N]; N];
    let mut s: u64 = 0x2545_F491_4F6C_DD1D;
    for (i, row) in d.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            *cell = if i == j { 0 } else { ((s >> 33) % 1000) as i64 };
        }
    }
    for k in 0..N {
        // Row k does not change during round k (d[k][k] = 0).
        let dk = d[k];
        for row in d.iter_mut() {
            let dik = row[k];
            for (cell, dkj) in row.iter_mut().zip(dk) {
                *cell = (*cell).min(dik + dkj);
            }
        }
    }
    std::hint::black_box(d.iter().flatten().sum())
}
