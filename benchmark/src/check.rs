//! The correctness gate. A run whose outputs fail any check exits nonzero
//! and prints no metrics.

use std::collections::HashMap;

use mann_core::TaskSuite;
use mann_serve::{ArrivalTrace, Server};

use crate::stack::Outcome;

/// Completions, rejections and sheds partition the trace: every request
/// id lands in exactly one of them.
pub fn partition(outcome: &Outcome, trace: &ArrivalTrace) -> Result<(), String> {
    let mut seen = vec![0u8; trace.len()];
    let ids = outcome
        .completions
        .iter()
        .map(|c| c.request.id)
        .chain(outcome.rejected.iter().copied())
        .chain(outcome.shed.iter().copied());
    for id in ids {
        let slot = usize::try_from(id)
            .ok()
            .and_then(|i| seen.get_mut(i))
            .ok_or_else(|| format!("request id {id} is not in the trace"))?;
        *slot += 1;
    }
    match seen.iter().position(|&n| n != 1) {
        Some(id) => Err(format!(
            "request {id} was completed, rejected or shed {} times, not once",
            seen[id]
        )),
        None => Ok(()),
    }
}

/// Every completion's answer equals the standalone
/// `Accelerator::run` answer of `reference`, the workload's own per-node
/// loadout, computed once per distinct (task, sample).
pub fn answers(outcome: &Outcome, suite: &TaskSuite, reference: &Server) -> Result<(), String> {
    let mut expected: HashMap<(usize, usize), usize> = HashMap::new();
    for c in &outcome.completions {
        let (task, sample) = (c.request.task_idx, c.request.sample_idx);
        let want = *expected.entry((task, sample)).or_insert_with(|| {
            reference
                .accelerator(task)
                .run(&suite.tasks[task].test_set[sample])
                .answer
        });
        if c.run.answer != want {
            return Err(format!(
                "request {} (task {task}, sample {sample}) answered {}, the accelerator answers {want}",
                c.request.id, c.run.answer
            ));
        }
    }
    Ok(())
}

/// Every serve of the same trace produced the same answers.
pub fn same_digests(digests: &[String]) -> Result<(), String> {
    match digests.iter().find(|d| *d != &digests[0]) {
        Some(d) => Err(format!(
            "answers digest changed between serves of one trace: {} vs {d}",
            digests[0]
        )),
        None => Ok(()),
    }
}

/// The journaled serve's report, durability section aside, is byte for
/// byte the plain serve's report.
pub fn durability_is_invisible(durable: &Outcome, plain: &Outcome) -> Result<(), String> {
    if durable.report.json_sans_durability() == plain.report.json() {
        Ok(())
    } else {
        Err("the durable report, durability aside, differs from the plain serve's".into())
    }
}
