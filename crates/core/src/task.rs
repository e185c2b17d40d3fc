//! Markov-based task decomposition (Fig. 5a).

use grw_graph::VertexId;

/// Sentinel for "no previous vertex" (first hop of a walk).
pub const NO_PREV: VertexId = VertexId::MAX;

/// One stateless walk task: everything a pipeline needs to execute one hop.
///
/// `Q_y^sx = ⟨v_last, ID_y, x, …⟩` — the task carries the current vertex
/// (and the previous one for second-order walks like Node2Vec), the query
/// id for result tracking, and the hop counter. No other walk state exists
/// anywhere in the accelerator, which is what makes per-hop reassignment
/// across pipelines legal (§V-C).
///
/// The tuple must fit one pipeline word (≤512 bits); a compile-time
/// assertion enforces the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Task {
    /// Query identifier `ID_y`: the machine slot holding the query's
    /// path, walk key and submission index.
    pub query: u32,
    /// Hop counter `x` (0-based: the hop this task will perform).
    pub step: u32,
    /// The current vertex `v_last`.
    pub v_curr: VertexId,
    /// Previous vertex for second-order sampling ([`NO_PREV`] on hop 0).
    pub v_prev: VertexId,
}

// "Each decomposed task is compact, no larger than 512 bits" (§V-C).
const _TASK_FITS_A_PIPELINE_WORD: () = assert!(std::mem::size_of::<Task>() * 8 <= 512);

impl Task {
    /// The first task of a query.
    pub fn initial(query: u32, start: VertexId) -> Self {
        Self {
            query,
            step: 0,
            v_curr: start,
            v_prev: NO_PREV,
        }
    }

    /// The successor task after this hop advanced to `next`.
    pub fn advance(&self, next: VertexId) -> Self {
        Self {
            query: self.query,
            step: self.step + 1,
            v_curr: next,
            v_prev: self.v_curr,
        }
    }

    /// Previous vertex as an `Option`.
    pub fn prev(&self) -> Option<VertexId> {
        (self.v_prev != NO_PREV).then_some(self.v_prev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_task_has_no_prev() {
        let t = Task::initial(3, 7);
        assert_eq!(t.prev(), None);
        assert_eq!(t.step, 0);
        assert_eq!(t.v_curr, 7);
    }

    #[test]
    fn advance_threads_the_vertex_chain() {
        let t = Task::initial(1, 10).advance(11).advance(12);
        assert_eq!(t.step, 2);
        assert_eq!(t.v_curr, 12);
        assert_eq!(t.prev(), Some(11));
    }

    #[test]
    fn task_is_compact() {
        assert!(std::mem::size_of::<Task>() <= 64, "task exceeds 512 bits");
    }
}
