//! Correctness checks made after every run, in the same command.

use volap_dims::{Aggregate, QueryBox};

use crate::load::same_answer;
use crate::setup::{preload_gen, Env};

/// Pool queries per band compared against a scan of the generated items.
const SCANNED_PER_BAND: usize = 32;

/// Conservation: a full-coverage query through every server equals the
/// preload plus every acknowledged insert.
pub fn conservation(env: &Env, expected: &Aggregate) -> Result<(), String> {
    let all = QueryBox::all(&env.schema);
    for s in 0..env.cfg.servers {
        let (got, _) = env
            .cluster
            .client_on(s)
            .query(&all)
            .map_err(|e| format!("full-coverage query on server-{s}: {e}"))?;
        if !same_answer(expected, &got) {
            return Err(format!("conservation broken on server-{s}: query {all:?} gave {got:?}, expected {expected:?}"));
        }
    }
    Ok(())
}

/// The first queries of each band's pool, answered by the cluster and by a
/// scan of the regenerated preload. Only valid while the data is the preload.
pub fn against_scan(env: &Env) -> Result<(), String> {
    let queries: Vec<&QueryBox> = env
        .pool
        .iter()
        .flat_map(|p| p.iter().take(SCANNED_PER_BAND))
        .collect();
    if queries.is_empty() {
        return Ok(());
    }
    let mut expected = vec![Aggregate::empty(); queries.len()];
    let mut gen = preload_gen(&env.schema);
    for _ in 0..env.preload {
        let item = gen.item();
        for (q, agg) in queries.iter().zip(&mut expected) {
            if q.contains_item(&item) {
                agg.add(item.measure);
            }
        }
    }
    let client = env.cluster.client_on(0);
    for (q, want) in queries.iter().zip(&expected) {
        let (got, _) = client.query(q).map_err(|e| format!("query {q:?}: {e}"))?;
        if !same_answer(want, &got) {
            return Err(format!(
                "wrong answer: query {q:?} gave {got:?}, a scan of the items gives {want:?}"
            ));
        }
    }
    Ok(())
}
