//! Band-parallel stepping: the intra-run work partitioner.
//!
//! [`crate::sweep`] parallelises *across* simulations; this module
//! parallelises *inside one synchronous round*.  The vertex (or word)
//! range of a lane is partitioned into contiguous horizontal **row
//! bands** — one per worker, aligned so a band owns whole cache tiles —
//! and each worker evaluates its band against the frozen pre-round state
//! into a band-local result buffer under `std::thread::scope` (the same
//! lock-free idiom as [`crate::sweep::parallel_map`]: no locks, no
//! channels, results joined in band order).
//!
//! # Why this is exact
//!
//! Every lane in the engine is strictly two-phase: the whole round is
//! *evaluated* against the immutable pre-round state, and the changes are
//! *applied* afterwards.  Band workers therefore only ever **read** shared
//! state and **write** band-local buffers, so the partitioning (and the
//! number of bands) can never affect the result — parallel stepping is
//! bit-identical to single-threaded stepping, which is what keeps
//! `threads` excluded from [`crate::spec::RunSpec::canonical_key`].
//!
//! # The halo-exchange invariant
//!
//! A band evaluating torus rows `[r0, r1)` reads at most one row beyond
//! each boundary (the north gather of row `r0` and the south gather of
//! row `r1 - 1`) — a one-word-row halo per neighbouring band.  Today the
//! halo needs no explicit exchange because all bands share one coherent
//! pre-round state in the same address space; a future NUMA split (bands
//! pinned to nodes with replicated planes) only has to ship those halo
//! rows between neighbours after each apply phase, nothing else.

/// Partitions `total` items into at most `bands` contiguous ranges.
///
/// Every range start (except the first) is a multiple of `align`, so a
/// band owns whole alignment units — the plane lane aligns to full tile
/// rows, keeping its cache-tiled traversal intact per band.  Returns at
/// least one range; ranges are non-empty (beyond the first when
/// `total == 0`), ordered, and cover `0..total` exactly.
pub fn band_ranges(total: usize, bands: usize, align: usize) -> Vec<(usize, usize)> {
    let align = align.max(1);
    let bands = bands.max(1);
    if total == 0 {
        return vec![(0, 0)];
    }
    // Ideal share, rounded *up* to the alignment: the last band absorbs
    // the remainder, so no band except the last is ever undersized.
    let chunk = total.div_ceil(bands).div_ceil(align) * align;
    let mut ranges = Vec::with_capacity(bands);
    let mut start = 0;
    while start < total {
        let end = (start + chunk).min(total);
        ranges.push((start, end));
        start = end;
    }
    ranges
}

/// Runs `f(band, start, end, &mut buffer)` for every band, in parallel
/// when there is more than one, and returns the per-band outputs in band
/// order.
///
/// `buffers` carries one reusable band-local accumulator per band (the
/// lanes pass their patch/change vectors), so band results need no fresh
/// buffers; the closure's return value carries small per-band summaries
/// (flip counts, census deltas), returned in a fresh `Vec` each call and
/// merged by the caller after the implicit barrier.  With a single band
/// everything runs inline on the calling thread — the sequential path
/// spawns nothing.
///
/// # Panics
///
/// Panics if `buffers.len() != ranges.len()`, or if a band worker
/// panics.
pub fn run_bands<B, T, F>(ranges: &[(usize, usize)], buffers: &mut [B], f: F) -> Vec<T>
where
    B: Send,
    T: Send,
    F: Fn(usize, usize, usize, &mut B) -> T + Sync,
{
    assert_eq!(ranges.len(), buffers.len(), "one buffer per band");
    if ranges.len() <= 1 {
        return ranges
            .iter()
            .zip(buffers)
            .enumerate()
            .map(|(band, (&(start, end), buffer))| f(band, start, end, buffer))
            .collect();
    }
    let mut out: Vec<Option<T>> = Vec::with_capacity(ranges.len());
    out.resize_with(ranges.len(), || None);
    let f = &f;
    std::thread::scope(|scope| {
        let workers: Vec<_> = ranges
            .iter()
            .zip(buffers)
            .enumerate()
            .map(|(band, (&(start, end), buffer))| scope.spawn(move || f(band, start, end, buffer)))
            .collect();
        for (slot, worker) in out.iter_mut().zip(workers) {
            *slot = Some(worker.join().expect("band worker panicked"));
        }
    });
    out.into_iter()
        .map(|o| o.expect("every band joined"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_ranges_cover_exactly_and_stay_aligned() {
        for total in [0usize, 1, 63, 64, 65, 1000, 4096] {
            for bands in [1usize, 2, 3, 8, 16] {
                for align in [1usize, 16, 512] {
                    let ranges = band_ranges(total, bands, align);
                    assert!(!ranges.is_empty());
                    assert_eq!(ranges[0].0, 0);
                    assert_eq!(ranges.last().unwrap().1, total);
                    for pair in ranges.windows(2) {
                        assert_eq!(pair[0].1, pair[1].0, "contiguous");
                        assert!(pair[1].0.is_multiple_of(align), "aligned starts");
                    }
                    assert!(ranges.len() <= bands.max(1));
                    if total > 0 {
                        assert!(ranges.iter().all(|&(s, e)| e > s), "non-empty bands");
                    }
                }
            }
        }
    }

    #[test]
    fn one_band_when_alignment_swallows_the_total() {
        let ranges = band_ranges(100, 8, 512);
        assert_eq!(ranges, vec![(0, 100)]);
    }

    #[test]
    fn run_bands_joins_in_band_order() {
        let ranges = band_ranges(100, 4, 1);
        let mut buffers: Vec<Vec<usize>> = vec![Vec::new(); ranges.len()];
        let sums = run_bands(&ranges, &mut buffers, |band, start, end, buffer| {
            buffer.extend(start..end);
            band * 1000 + (end - start)
        });
        assert_eq!(sums.len(), ranges.len());
        for (band, ((start, end), buffer)) in ranges.iter().zip(&buffers).enumerate() {
            assert_eq!(buffer.len(), end - start);
            assert_eq!(buffer.first(), Some(start));
            assert_eq!(sums[band], band * 1000 + (end - start));
        }
        // The concatenation of band buffers is the sequential order.
        let merged: Vec<usize> = buffers.concat();
        assert_eq!(merged, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn single_band_runs_inline() {
        let mut buffers = vec![0u64];
        let out = run_bands(&[(0, 10)], &mut buffers, |band, start, end, buffer| {
            *buffer = (start..end).map(|v| v as u64).sum();
            band
        });
        assert_eq!(out, vec![0]);
        assert_eq!(buffers[0], 45);
    }
}
