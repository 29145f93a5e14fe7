//! Tuned model parameters for the accuracy experiments.
//!
//! The paper selects each figure's model parameters by grid search (§5.1)
//! over a training prefix with `H = 1, K = 8192`. This module wraps that
//! step and memoizes per process run, since several figures share the same
//! (model, router, interval) tuning.

use crate::runner::Trace;
use scd_core::gridsearch::{search_model, GridSearchConfig};
use scd_forecast::{ModelKind, ModelSpec};
use std::collections::HashMap;
use std::sync::Mutex;

/// Search depth: the paper's full settings, or a faster variant for ARIMA
/// (coarser coefficient grid) used by default so the full experiment suite
/// completes in minutes. Select the paper's with `--paper-search`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SearchDepth {
    /// [`GridSearchConfig::paper_default`]: 10 subdivisions (7 for ARIMA),
    /// 2 passes — §4.2.
    Paper,
    /// [`GridSearchConfig::fast`]: 10 subdivisions (5 for ARIMA), 2 passes.
    Fast,
}

type CacheKey = (ModelKind, u32, u64, usize, SearchDepth);

static CACHE: Mutex<Option<HashMap<CacheKey, ModelSpec>>> = Mutex::new(None);

/// Grid-searches (with memoization) the parameters of `kind` on `trace`.
/// The cache key includes the trace's record count as a fingerprint.
pub fn tuned(kind: ModelKind, trace: &Trace, seed: u64, depth: SearchDepth) -> ModelSpec {
    let key = (kind, trace.interval_secs, seed, trace.records, depth);
    if let Some(cached) =
        CACHE.lock().expect("params cache").get_or_insert_with(HashMap::new).get(&key).cloned()
    {
        return cached;
    }
    let cfg = match depth {
        SearchDepth::Paper => GridSearchConfig::paper_default(trace.interval_secs),
        SearchDepth::Fast => GridSearchConfig::fast(trace.interval_secs),
    };
    let result = search_model(kind, &cfg, &trace.intervals);
    CACHE
        .lock()
        .expect("params cache")
        .get_or_insert_with(HashMap::new)
        .insert(key, result.spec.clone());
    result.spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::make_trace;
    use scd_traffic::RouterProfile;

    #[test]
    fn tuning_is_memoized_and_valid() {
        let trace = make_trace(RouterProfile::Small, 60, 6, 0.2, 5);
        let a = tuned(ModelKind::Ewma, &trace, 5, SearchDepth::Fast);
        let b = tuned(ModelKind::Ewma, &trace, 5, SearchDepth::Fast);
        assert_eq!(a, b);
        a.validate().unwrap();
    }
}
