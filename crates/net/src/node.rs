//! The protocol-node abstraction.
//!
//! A [`Node`] is a deterministic state machine: it reacts to delivered
//! messages and expired timers by mutating its state and emitting sends and
//! new timers through a [`NodeCtx`]. Writing protocols this way keeps them
//! transport-agnostic (the simulated and thread transports both drive the
//! same code) and makes every run a pure function of (initial state,
//! message schedule, seeds).

use wv_sim::{DetRng, SimDuration, SimTime};

use crate::site::SiteId;

/// A protocol participant hosted at one site.
pub trait Node {
    /// The protocol's message type.
    type Msg;

    /// Called when a message from `from` is delivered to this node.
    fn on_message(&mut self, from: SiteId, msg: Self::Msg, ctx: &mut NodeCtx<'_, Self::Msg>);

    /// Called when a timer set through [`NodeCtx::set_timer`] expires.
    ///
    /// `token` is the value passed to `set_timer`. A timer whose firing
    /// would change nothing may be cancelled ([`NodeCtx::cancel_timer`]);
    /// one that is not still fires, so nodes carry a generation counter in
    /// the token (or in their state) and ignore stale expirations. A crash
    /// drops the site's pending timers ([`crate::Fault::Crash`]), so none set
    /// before it fires, not even after the recovery; the thread transport
    /// has no crash. The default implementation ignores all timers.
    fn on_timer(&mut self, token: u64, ctx: &mut NodeCtx<'_, Self::Msg>) {
        let _ = (token, ctx);
    }

    /// Called when the hosting site crashes.
    ///
    /// Implementations must discard volatile state here; anything that
    /// should survive belongs in stable storage (see `wv-storage`). The
    /// default does nothing.
    fn on_crash(&mut self) {}

    /// Called when the hosting site recovers from a crash.
    ///
    /// The default does nothing; protocols that need recovery actions
    /// (e.g. re-reading stable storage, restarting timers) override it.
    fn on_recover(&mut self, ctx: &mut NodeCtx<'_, Self::Msg>) {
        let _ = ctx;
    }
}

/// The effects a node wants the transport to perform.
#[derive(Debug)]
pub enum Effect<M> {
    /// Send `msg` to `to`.
    Send {
        /// Destination site.
        to: SiteId,
        /// Payload.
        msg: M,
    },
    /// Fire `on_timer(token)` after `delay`.
    Timer {
        /// How long until the timer fires.
        delay: SimDuration,
        /// Opaque value handed back to `on_timer`.
        token: u64,
    },
    /// Drop every timer set with `token` that has yet to fire.
    Cancel {
        /// The token the timers were set with.
        token: u64,
    },
}

/// Execution context handed to a node while it runs.
///
/// Collects the node's effects; the transport applies them (sampling
/// latencies, drops, partitions) after the handler returns, so a handler
/// can never observe its own sends.
pub struct NodeCtx<'a, M> {
    now: SimTime,
    self_id: SiteId,
    rng: &'a mut DetRng,
    effects: Vec<Effect<M>>,
}

impl<'a, M> NodeCtx<'a, M> {
    /// Creates a context. Transports call this; protocol code receives it.
    pub fn new(now: SimTime, self_id: SiteId, rng: &'a mut DetRng) -> Self {
        NodeCtx::with_buffer(now, self_id, rng, Vec::new())
    }

    /// Like [`NodeCtx::new`], collecting effects into `buffer` (cleared
    /// first). A transport that hands back the vector it got from
    /// [`NodeCtx::take_effects`] pays for its allocation once, not once
    /// per handler call.
    pub fn with_buffer(
        now: SimTime,
        self_id: SiteId,
        rng: &'a mut DetRng,
        mut buffer: Vec<Effect<M>>,
    ) -> Self {
        buffer.clear();
        NodeCtx {
            now,
            self_id,
            rng,
            effects: buffer,
        }
    }

    /// The current time (virtual or wall-clock depending on transport).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The site this node lives on.
    pub fn self_id(&self) -> SiteId {
        self.self_id
    }

    /// This node's private random stream.
    pub fn rng(&mut self) -> &mut DetRng {
        self.rng
    }

    /// Queues a message to `to`.
    ///
    /// Sending to one's own site is allowed and travels over the self-link
    /// (local access latency).
    pub fn send(&mut self, to: SiteId, msg: M) {
        self.effects.push(Effect::Send { to, msg });
    }

    /// Requests a timer callback after `delay` carrying `token`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.effects.push(Effect::Timer { delay, token });
    }

    /// Cancels every timer set with `token` that has yet to fire (not one
    /// set with it later). A cancelled timer never fires, so a node
    /// cancels only timers whose firing would change nothing.
    pub fn cancel_timer(&mut self, token: u64) {
        self.effects.push(Effect::Cancel { token });
    }

    /// Drains the collected effects. Transports call this once the handler
    /// returns.
    pub fn take_effects(&mut self) -> Vec<Effect<M>> {
        std::mem::take(&mut self.effects)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;

    impl Node for Echo {
        type Msg = u32;

        fn on_message(&mut self, from: SiteId, msg: u32, ctx: &mut NodeCtx<'_, u32>) {
            ctx.send(from, msg + 1);
        }
    }

    #[test]
    fn ctx_collects_sends_and_timers() {
        let mut rng = DetRng::new(1);
        let mut ctx: NodeCtx<'_, u32> = NodeCtx::new(SimTime::from_millis(5), SiteId(2), &mut rng);
        assert_eq!(ctx.now(), SimTime::from_millis(5));
        assert_eq!(ctx.self_id(), SiteId(2));
        ctx.send(SiteId(0), 10);
        ctx.set_timer(SimDuration::from_millis(30), 77);
        ctx.send(SiteId(1), 42);
        ctx.send(SiteId(3), 42);
        ctx.cancel_timer(77);
        let effects = ctx.take_effects();
        assert_eq!(effects.len(), 5);
        assert!(matches!(effects[4], Effect::Cancel { token: 77 }));
        assert!(matches!(effects[0], Effect::Send { to, msg } if to == SiteId(0) && msg == 10));
        assert!(matches!(
            effects[1],
            Effect::Timer { delay, token } if delay == SimDuration::from_millis(30) && token == 77
        ));
        assert!(matches!(effects[3], Effect::Send { to, msg } if to == SiteId(3) && msg == 42));
    }

    #[test]
    fn a_recycled_buffer_starts_empty_and_keeps_its_allocation() {
        let mut rng = DetRng::new(1);
        let mut ctx: NodeCtx<'_, u32> = NodeCtx::new(SimTime::ZERO, SiteId(0), &mut rng);
        for i in 0..16 {
            ctx.send(SiteId(1), i);
        }
        let mut effects = ctx.take_effects();
        let capacity = effects.capacity();
        effects.truncate(3); // leftovers must not leak into the next call
        let mut ctx = NodeCtx::with_buffer(SimTime::ZERO, SiteId(0), &mut rng, effects);
        ctx.send(SiteId(1), 99);
        let effects = ctx.take_effects();
        assert_eq!(effects.len(), 1);
        assert_eq!(effects.capacity(), capacity);
    }

    #[test]
    fn default_timer_and_crash_handlers_are_noops() {
        let mut node = Echo;
        let mut rng = DetRng::new(2);
        let mut ctx = NodeCtx::new(SimTime::ZERO, SiteId(0), &mut rng);
        node.on_timer(0, &mut ctx);
        node.on_crash();
        node.on_recover(&mut ctx);
        assert!(ctx.take_effects().is_empty());
    }

    #[test]
    fn node_handler_emits_reply() {
        let mut node = Echo;
        let mut rng = DetRng::new(3);
        let mut ctx = NodeCtx::new(SimTime::ZERO, SiteId(1), &mut rng);
        node.on_message(SiteId(9), 41, &mut ctx);
        let effects = ctx.take_effects();
        assert!(matches!(effects[0], Effect::Send { to, msg } if to == SiteId(9) && msg == 42));
    }
}
