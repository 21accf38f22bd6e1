//! A subscription's life in the broker's index, as one pure table
//! (DESIGN "Notification fabric", and this module's test): its mode,
//! failure streak and deliveries in flight change only by
//! [`SubLife::apply`], and the broker performs the [`Action`] it answers.
//! Like `uvacg`'s `job` module it sends, stores, waits and reads nothing.

/// Consecutive transport failures that auto-pause a live subscription.
pub(crate) const AUTOPAUSE_AFTER: u32 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Mode {
    #[default]
    Live,
    Paused,
    /// Out of the index: destroyed, expired or recompiled.
    Dead,
}

/// What happened to a subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// Its document was saved with this `Paused` value.
    Saved { paused: bool },
    /// It left the index, from inside a delivery if `delivering`.
    Retire { delivering: bool },
    /// A delivery to it is about to be sent.
    Begin,
    /// A delivery that `Begin` let through came back.
    End { ok: bool },
}

/// What the broker does about an [`Event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Action {
    Skip,
    /// Send the delivery: it is in flight until its `End`.
    Send,
    /// Write `Paused = true` through the store.
    AutoPause,
    /// Return only once no delivery is in flight.
    Wait,
    /// A dead subscription's last delivery ended: wake the waiters.
    Wake,
}

/// A new entry starts `Live` and takes its document's `Saved` step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct SubLife {
    pub(crate) mode: Mode,
    /// Consecutive failed deliveries.
    pub(crate) streak: u32,
    pub(crate) in_flight: usize,
}

impl SubLife {
    pub(crate) fn apply(&mut self, event: Event) -> Action {
        use {Action::*, Event::*, Mode::*};
        match (self.mode, event) {
            (Dead, Saved { .. }) | (Paused | Dead, Begin) => Skip,
            (_, Saved { paused: true }) => {
                self.mode = Paused;
                Skip
            }
            // A resume forgives the failure streak.
            (_, Saved { paused: false }) => {
                (self.mode, self.streak) = (Live, 0);
                Skip
            }
            // From inside a delivery, a wait would wait for that very
            // delivery, or for one that waits for it.
            (_, Retire { delivering }) => {
                self.mode = Dead;
                if self.in_flight > 0 && !delivering {
                    Wait
                } else {
                    Skip
                }
            }
            (Live, Begin) => {
                self.in_flight += 1;
                Send
            }
            (mode, End { ok }) => {
                self.in_flight -= 1;
                self.streak = if ok { 0 } else { self.streak + 1 };
                match mode {
                    Live if self.streak >= AUTOPAUSE_AFTER => {
                        self.mode = Paused;
                        AutoPause
                    }
                    Dead if self.in_flight == 0 => Wake,
                    _ => Skip,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Action::*;
    use Mode::*;

    const EVENTS: [Event; 7] = [
        Event::Saved { paused: false },
        Event::Saved { paused: true },
        Event::Retire { delivering: false },
        Event::Retire { delivering: true },
        Event::Begin,
        Event::End { ok: true },
        Event::End { ok: false },
    ];

    fn life(mode: Mode, streak: u32, in_flight: usize) -> SubLife {
        SubLife {
            mode,
            streak,
            in_flight,
        }
    }

    /// From streak 2 (one short of auto-pause) and one delivery in
    /// flight, per mode, per event in `EVENTS` order: the state after
    /// it (mode, streak, in flight) and the action. DESIGN "Notification
    /// fabric" shows the same table.
    #[test]
    fn every_mode_meets_every_event_as_the_table_says() {
        assert_eq!(AUTOPAUSE_AFTER, 3);
        let table = [
            (
                Live,
                [
                    (Live, 0, 1, Skip),
                    (Paused, 2, 1, Skip),
                    (Dead, 2, 1, Wait),
                    (Dead, 2, 1, Skip),
                    (Live, 2, 2, Send),
                    (Live, 0, 0, Skip),
                    (Paused, 3, 0, AutoPause),
                ],
            ),
            (
                Paused,
                [
                    (Live, 0, 1, Skip),
                    (Paused, 2, 1, Skip),
                    (Dead, 2, 1, Wait),
                    (Dead, 2, 1, Skip),
                    (Paused, 2, 1, Skip),
                    (Paused, 0, 0, Skip),
                    (Paused, 3, 0, Skip),
                ],
            ),
            (
                Dead,
                [
                    (Dead, 2, 1, Skip),
                    (Dead, 2, 1, Skip),
                    (Dead, 2, 1, Wait),
                    (Dead, 2, 1, Skip),
                    (Dead, 2, 1, Skip),
                    (Dead, 0, 0, Wake),
                    (Dead, 3, 0, Wake),
                ],
            ),
        ];
        for (mode, row) in table {
            for (event, (m, streak, in_flight, action)) in EVENTS.into_iter().zip(row) {
                let mut sub = life(mode, 2, 1);
                let got = sub.apply(event);
                let what = format!("{mode:?} x {event:?}");
                assert_eq!(sub, life(m, streak, in_flight), "{what}: state");
                assert_eq!(got, action, "{what}: action");
            }
        }
    }

    /// The rows the table's start state cannot show: nothing in flight
    /// means nothing to wait for, and only the last delivery wakes.
    #[test]
    fn waits_and_wakes_follow_the_in_flight_count() {
        for mode in [Live, Paused, Dead] {
            let mut idle = life(mode, 0, 0);
            assert_eq!(idle.apply(Event::Retire { delivering: false }), Skip);
        }
        let mut dead = life(Dead, 0, 2);
        assert_eq!(dead.apply(Event::End { ok: true }), Skip);
        assert_eq!(dead.apply(Event::End { ok: true }), Wake);
        // One failure short of the streak only counts it.
        let mut live = life(Live, 0, 1);
        assert_eq!(live.apply(Event::End { ok: false }), Skip);
        assert_eq!(live, life(Live, 1, 0));
    }
}
