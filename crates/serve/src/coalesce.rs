//! Transparent batching of concurrent single-source BFS queries.
//!
//! A resident daemon sees many users' traversal queries against the same
//! graph; running them one at a time sweeps the identical adjacency once
//! per source. The [`Coalescer`] batches them by *group commit*, with no
//! timer: each graph has at most one running batch and at most one
//! pending batch.
//!
//! * **Lone query.** A query that finds its graph idle leads a batch of
//!   one and runs at once — it never waits for company.
//! * **Queued queries.** A query that arrives while a batch on its graph
//!   runs joins the pending batch; the first to join is that batch's
//!   leader, the rest are *followers* that park on it.
//! * **Handoff.** When the running leader finishes, it hands the graph's
//!   turn to the pending batch (which closes it to further joins), or
//!   frees the graph if none is pending. The handoff runs in [`Leader`]'s
//!   `Drop`, so a leader that panics still passes the turn on, and its
//!   followers wake with an `Internal` error.
//!
//! Batches therefore form exactly while a graph is busy, and a queued
//! query waits only for the batch ahead of it.
//!
//! Coalescing is invisible on the wire: each member still gets one
//! response line with the same result fields and the same canonical
//! fingerprint a solo run produces, because fingerprints hash canonical
//! depth arrays and MS-BFS depths are bit-identical to single-source
//! depths (a pure function of graph and source). What changes is the
//! aggregate cost — one sweep per level for the whole batch — and the
//! `batch_queries` / `batch_width` lifecycle counters.
//!
//! Synchronization: the per-graph lane map and each batch's state are
//! mutex-protected, always locked map-then-batch. Joins and handoffs both
//! run under the map lock, so a batch's source list is frozen from the
//! moment it holds the turn. Members hold their own admission permits
//! while parked, so a batch is never wider than the gate's `max_active`.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use gapbs_graph::gen::GraphSpec;
use gapbs_graph::types::NodeId;

use crate::protocol::{ErrorCode, ProtoError};

/// Per-source output of a coalesced batch: the canonical depth array the
/// response fields and fingerprint derive from.
pub type MemberDepths = Arc<Vec<u32>>;

#[derive(Debug)]
struct BatchState {
    /// Source per member, in join order (member index = position).
    sources: Vec<NodeId>,
    /// Set when the batch holds its graph's turn; no more joins.
    turn: bool,
    /// Depth column per member, published by the leader.
    output: Option<Result<Vec<MemberDepths>, ProtoError>>,
}

/// One pending or running batch; members rendezvous here.
#[derive(Debug)]
pub struct Batch {
    state: Mutex<BatchState>,
    cond: Condvar,
}

impl Batch {
    fn new(source: NodeId, turn: bool) -> Arc<Batch> {
        Arc::new(Batch {
            state: Mutex::new(BatchState {
                sources: vec![source],
                turn,
                output: None,
            }),
            cond: Condvar::new(),
        })
    }

    // Every update to `BatchState` is a single assignment or push, so
    // the state a panicking holder leaves behind is always valid.
    fn lock(&self) -> MutexGuard<'_, BatchState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wait_turn(&self) -> MutexGuard<'_, BatchState> {
        let mut state = self.lock();
        while !state.turn {
            state = self.cond.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        state
    }

    /// Follower: parks until the leader publishes, then returns this
    /// member's depth column.
    pub fn wait(&self, member: usize) -> Result<MemberDepths, ProtoError> {
        let mut state = self.lock();
        loop {
            if let Some(output) = &state.output {
                return match output {
                    Ok(columns) => Ok(Arc::clone(&columns[member])),
                    Err(err) => Err(err.clone()),
                };
            }
            state = self.cond.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// The first member of a batch: runs it once the batch holds its graph's
/// turn, and on drop hands the turn on (see the module docs).
#[derive(Debug)]
pub struct Leader<'a> {
    coalescer: &'a Coalescer,
    graph: GraphSpec,
    batch: Arc<Batch>,
}

impl Leader<'_> {
    /// Blocks until the batch holds its graph's turn — at once for a
    /// lone query — then returns the member sources (index = member).
    /// No query can join past this point.
    pub fn sources(&self) -> Vec<NodeId> {
        self.batch.wait_turn().sources.clone()
    }

    /// Hands every follower its depth column (index = member) and
    /// returns the leader's own; dropping the leader then passes the
    /// graph's turn on.
    pub fn publish(self, columns: Vec<MemberDepths>) -> MemberDepths {
        let mine = Arc::clone(&columns[0]);
        self.batch.lock().output = Some(Ok(columns));
        self.batch.cond.notify_all();
        mine
    }

    #[cfg(test)]
    fn has_turn(&self) -> bool {
        self.batch.lock().turn
    }
}

impl Drop for Leader<'_> {
    fn drop(&mut self) {
        // A leader that unwinds before publishing still owes its
        // followers an answer; it takes its turn first so the batch's
        // place in the handoff chain is kept.
        let mut state = self.batch.wait_turn();
        if state.output.is_none() {
            state.output = Some(Err(ProtoError::new(
                ErrorCode::Internal,
                "batch leader ended without publishing a result",
            )));
            self.batch.cond.notify_all();
        }
        drop(state);
        self.coalescer.finish(self.graph);
    }
}

/// How a query entered a batch.
pub enum Joined<'a> {
    /// First member: runs the batch once it holds the graph's turn.
    Leader(Leader<'a>),
    /// Subsequent member at the given index; waits for the leader.
    Follower(Arc<Batch>, usize),
}

/// The per-graph group-commit batcher; see the module docs.
#[derive(Debug, Default)]
pub struct Coalescer {
    /// A key is present while a batch on that graph holds the turn; its
    /// value is the batch collecting members for the next turn.
    lanes: Mutex<HashMap<GraphSpec, Option<Arc<Batch>>>>,
}

impl Coalescer {
    // Every update to the lane map is a single insert, remove or take.
    fn lanes(&self) -> MutexGuard<'_, HashMap<GraphSpec, Option<Arc<Batch>>>> {
        self.lanes.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Joins `graph`'s pending batch, opens one, or — if the graph is
    /// idle — leads a batch of one that holds the turn at once. The
    /// caller must have validated `source` against the graph's vertex
    /// range.
    pub fn join(&self, graph: GraphSpec, source: NodeId) -> Joined<'_> {
        let mut lanes = self.lanes();
        let batch = match lanes.get_mut(&graph) {
            None => {
                lanes.insert(graph, None);
                Batch::new(source, true)
            }
            Some(Some(pending)) => {
                let mut state = pending.lock();
                state.sources.push(source);
                return Joined::Follower(Arc::clone(pending), state.sources.len() - 1);
            }
            Some(slot) => {
                let batch = Batch::new(source, false);
                *slot = Some(Arc::clone(&batch));
                batch
            }
        };
        Joined::Leader(Leader {
            coalescer: self,
            graph,
            batch,
        })
    }

    /// Passes `graph`'s turn to its pending batch, or frees the graph.
    fn finish(&self, graph: GraphSpec) {
        let mut lanes = self.lanes();
        match lanes.get_mut(&graph).and_then(Option::take) {
            Some(next) => {
                next.lock().turn = true;
                next.cond.notify_all();
            }
            None => {
                lanes.remove(&graph);
            }
        }
    }

    /// Members collected so far by `graph`'s pending batch.
    #[cfg(test)]
    pub(crate) fn queued(&self, graph: GraphSpec) -> usize {
        self.lanes()
            .get(&graph)
            .and_then(Option::as_ref)
            .map_or(0, |batch| batch.lock().sources.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lead(joined: Joined<'_>) -> Leader<'_> {
        match joined {
            Joined::Leader(leader) => leader,
            Joined::Follower(..) => panic!("expected to lead"),
        }
    }

    fn follow(joined: Joined<'_>) -> (Arc<Batch>, usize) {
        match joined {
            Joined::Follower(batch, member) => (batch, member),
            Joined::Leader(_) => panic!("expected to follow"),
        }
    }

    fn columns(sources: &[NodeId]) -> Vec<MemberDepths> {
        sources.iter().map(|&s| Arc::new(vec![s])).collect()
    }

    #[test]
    fn lone_join_leads_with_its_turn_granted() {
        let c = Coalescer::default();
        let kron = lead(c.join(GraphSpec::Kron, 3));
        assert!(kron.has_turn());
        assert_eq!(kron.sources(), vec![3]);
        // Another graph is its own lane.
        assert!(lead(c.join(GraphSpec::Road, 0)).has_turn());
    }

    #[test]
    fn joins_behind_a_running_batch_queue_as_next_leader_then_follow() {
        let c = Coalescer::default();
        let running = lead(c.join(GraphSpec::Kron, 3));
        let next = lead(c.join(GraphSpec::Kron, 9));
        assert!(!next.has_turn(), "queued behind the running batch");
        let (_, member) = follow(c.join(GraphSpec::Kron, 4));
        assert_eq!(member, 1);
        assert_eq!(c.queued(GraphSpec::Kron), 2);
        // A queued leader takes its turn before it drops, so the running
        // one must go first.
        drop(running);
    }

    #[test]
    fn finish_hands_the_turn_to_the_queued_batch() {
        let c = Coalescer::default();
        let running = lead(c.join(GraphSpec::Kron, 3));
        let next = lead(c.join(GraphSpec::Kron, 9));
        let (batch, member) = follow(c.join(GraphSpec::Kron, 4));
        running.publish(columns(&[3]));
        assert!(next.has_turn());
        assert_eq!(c.queued(GraphSpec::Kron), 0, "the batch left the queue");
        let sources = next.sources();
        assert_eq!(sources, vec![9, 4]);
        // Joins after the handoff queue behind the new running batch.
        let after = lead(c.join(GraphSpec::Kron, 7));
        assert!(!after.has_turn());
        assert_eq!(*next.publish(columns(&sources)), vec![9]);
        assert_eq!(*batch.wait(member).unwrap(), vec![4]);
        assert!(after.has_turn());
    }

    #[test]
    fn finish_with_nothing_queued_frees_the_graph() {
        let c = Coalescer::default();
        lead(c.join(GraphSpec::Kron, 3)).publish(columns(&[3]));
        assert!(lead(c.join(GraphSpec::Kron, 5)).has_turn());
    }

    #[test]
    fn followers_wake_with_their_own_column() {
        let c = Coalescer::default();
        let running = lead(c.join(GraphSpec::Kron, 3));
        let next = lead(c.join(GraphSpec::Kron, 1));
        let (batch, member) = follow(c.join(GraphSpec::Kron, 2));
        let waiter = std::thread::spawn(move || batch.wait(member));
        drop(running);
        let sources = next.sources();
        next.publish(columns(&sources));
        assert_eq!(*waiter.join().unwrap().unwrap(), vec![2]);
    }

    #[test]
    fn panicking_leader_frees_the_graph_and_fails_its_followers() {
        let c = Coalescer::default();
        let running = lead(c.join(GraphSpec::Kron, 3));
        let next = lead(c.join(GraphSpec::Kron, 1));
        let (batch, member) = follow(c.join(GraphSpec::Kron, 2));
        drop(running);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            next.sources();
            panic!("kernel failed");
        }));
        assert!(unwound.is_err());
        assert_eq!(batch.wait(member).unwrap_err().code, ErrorCode::Internal);
        assert!(lead(c.join(GraphSpec::Kron, 5)).has_turn());
    }
}
