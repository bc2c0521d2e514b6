//! Fixture: metric/span name literals outside the stage registry. The
//! marked lines must trip `obs-name-prefix` (linted under a non-exempt
//! crate path).

pub fn emit(v: u64) {
    nashdb_obs::record("bogus.metric", v); //~ obs-name-prefix
    nashdb_obs::counter_add("queue_depth", 1); //~ obs-name-prefix
    nashdb_obs::gauge_set("packing-bffd.bins", v); //~ obs-name-prefix
    let _g = nashdb_obs::span("warp"); //~ obs-name-prefix
}
