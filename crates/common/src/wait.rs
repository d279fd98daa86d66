//! The one wait mechanism of the engine's shared structures.
//!
//! A structure that cannot serve a request right now — an empty or full
//! block queue, an exhausted byte quota, a dry staging arena — registers the
//! caller's [`Waker`] under the mutex that guards the condition it failed
//! on, and the event that changes the condition (a push, a release, a close)
//! takes the registered wakers under that same mutex and wakes them. A
//! registration made while the condition held can therefore not miss its
//! event. The pipelined executor's tasks register their scheduler wakers;
//! the blocking entry points below register a waker that unparks the
//! calling thread.

use std::sync::Arc;
use std::task::{Poll, Wake, Waker};
use std::thread::{self, Thread};
use std::time::Instant;

/// Add `waker` to a condition's registrations unless it is already there.
pub fn register(wakers: &mut Vec<Waker>, waker: &Waker) {
    if !wakers.iter().any(|w| w.will_wake(waker)) {
        wakers.push(waker.clone());
    }
}

/// The registrations taken from a condition by [`take`], to wake once its
/// mutex is released.
#[must_use = "taken registrations are woken by `Wakeups::wake`"]
#[derive(Default)]
pub enum Wakeups {
    #[default]
    None,
    One(Waker),
    All(Vec<Waker>),
}

/// Take every registration of a condition, under its mutex. A lone
/// registration is popped and the condition keeps its buffer, so the next
/// wait registers without allocating; only several take the buffer along.
pub fn take(wakers: &mut Vec<Waker>) -> Wakeups {
    match wakers.len() {
        0 => Wakeups::None,
        1 => wakers.pop().map_or(Wakeups::None, Wakeups::One),
        _ => Wakeups::All(std::mem::take(wakers)),
    }
}

impl Wakeups {
    /// Wake the taken registrations (after the condition's mutex was
    /// released).
    pub fn wake(self) {
        match self {
            Wakeups::None => {}
            Wakeups::One(waker) => waker.wake(),
            Wakeups::All(wakers) => wakers.into_iter().for_each(Waker::wake),
        }
    }
}

struct Unparker(Thread);

impl Wake for Unparker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.0.unpark();
    }
}

thread_local! {
    static UNPARKER: Waker = Waker::from(Arc::new(Unparker(thread::current())));
}

/// Block the calling thread until `poll` is ready. `poll` registers the
/// waker it is given whenever it returns `Pending`.
pub fn block_on<T>(mut poll: impl FnMut(&Waker) -> Poll<T>) -> T {
    UNPARKER.with(|waker| loop {
        if let Poll::Ready(value) = poll(waker) {
            return value;
        }
        thread::park();
    })
}

/// Like [`block_on`], but gives up at `deadline` and returns `None`.
pub fn block_until<T>(deadline: Instant, mut poll: impl FnMut(&Waker) -> Poll<T>) -> Option<T> {
    UNPARKER.with(|waker| loop {
        if let Poll::Ready(value) = poll(waker) {
            return Some(value);
        }
        let now = Instant::now();
        if now >= deadline {
            return None;
        }
        thread::park_timeout(deadline - now);
    })
}
