//! The unified query-session API.
//!
//! [`QuerySession`] is the single entry point for running a query, whatever
//! the host: opened on a bare engine ([`Proteus::session`]) it executes
//! one-shot, opened on a server ([`QueryServer::session`]) it can also submit
//! for admission-controlled serving. The builder carries the per-query knobs:
//!
//! * [`QuerySession::priority`] — the admission class (serving only),
//! * [`QuerySession::observe`] — a shared slowdown observer,
//! * [`QuerySession::reuse_feedback`] — a shared [`FeedbackCache`] for plan
//!   re-optimization, overriding the host's own (the engine-lifetime cache
//!   for one-shot sessions, the server-lifetime cache for served ones).
//!
//! Defaults match the host exactly: a plain `engine.session().execute(..)`
//! gives the query a fresh observer and the engine-lifetime cache, and a
//! server session inherits the server's shared observer and feedback cache.

use crate::engine::{Proteus, QueryOutcome};
use crate::server::{QueryServer, QueryTicket};
use hetex_common::{EngineConfig, HetError, Priority, Result};
use hetex_core::{FeedbackCache, RelNode, SlowdownObserver};
use std::sync::Arc;

/// What a session runs against.
enum Host<'a> {
    Engine(&'a Proteus),
    Server(&'a mut QueryServer),
}

/// One query's submission context: host, priority class, and the shared
/// state (observer, feedback cache) the query participates in.
pub struct QuerySession<'a> {
    host: Host<'a>,
    priority: Priority,
    observer: Option<Arc<SlowdownObserver>>,
    feedback: Option<Arc<FeedbackCache>>,
}

impl std::fmt::Debug for QuerySession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuerySession")
            .field(
                "host",
                match self.host {
                    Host::Engine(_) => &"engine",
                    Host::Server(_) => &"server",
                },
            )
            .field("priority", &self.priority)
            .field("observer", &self.observer.is_some())
            .field("feedback", &self.feedback.is_some())
            .finish()
    }
}

impl<'a> QuerySession<'a> {
    pub(crate) fn on_engine(engine: &'a Proteus) -> Self {
        Self {
            host: Host::Engine(engine),
            priority: Priority::Normal,
            observer: None,
            feedback: None,
        }
    }

    pub(crate) fn on_server(server: &'a mut QueryServer) -> Self {
        Self {
            host: Host::Server(server),
            priority: Priority::Normal,
            observer: None,
            feedback: None,
        }
    }

    /// Admission priority class for [`Self::submit`] (ignored by
    /// [`Self::execute`], which never queues).
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Share `observer` with this query: straggler EWMAs it learned from
    /// earlier queries steer this one's routing, and what this query observes
    /// flows back. A server session defaults to the server's own observer;
    /// an engine session defaults to a fresh one per query.
    pub fn observe(mut self, observer: Arc<SlowdownObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Plan-feedback cache for re-optimization (`EngineConfig::reopt`),
    /// overriding the host's: useful to share measurements across engines, or
    /// to isolate a query from the host's history with a fresh cache.
    pub fn reuse_feedback(mut self, feedback: Arc<FeedbackCache>) -> Self {
        self.feedback = Some(feedback);
        self
    }

    /// Execute `plan` now, on the caller's thread, and return its outcome.
    pub fn execute(self, plan: &RelNode, config: &EngineConfig) -> Result<QueryOutcome> {
        match self.host {
            Host::Engine(engine) => engine.execute_with(plan, config, self.observer, self.feedback),
            Host::Server(server) => {
                let observer = self.observer.unwrap_or_else(|| Arc::clone(server.observer()));
                let feedback = self.feedback.unwrap_or_else(|| Arc::clone(server.feedback_cache()));
                server.engine().execute_with(plan, config, Some(observer), Some(feedback))
            }
        }
    }

    /// Submit `plan` for admission-controlled serving and return a ticket.
    /// Requires a server host ([`QueryServer::session`]); an engine session
    /// has no admission queue to submit to.
    pub fn submit(self, plan: RelNode, config: EngineConfig) -> Result<QueryTicket> {
        match self.host {
            Host::Engine(_) => Err(HetError::Config(
                "QuerySession::submit requires a server host; \
                 open the session with QueryServer::session() (or use .execute())"
                    .into(),
            )),
            Host::Server(server) => {
                server.submit_session(plan, config, self.priority, self.observer, self.feedback)
            }
        }
    }
}
