(** A linearizability oracle for segment operations, run over every
    explored schedule.

    Scenarios wrap each segment operation in {!record}, which timestamps
    the invocation and response with a logical clock and stores the call
    and its result. After a schedule completes, {!check} decides whether
    the recorded history is linearizable against a sequential
    multiset-pool specification: every operation must appear to take
    effect atomically at some point between its invocation and response,
    with results a bounded multiset (plus reservation accounting) could
    actually have produced. The decision procedure is Wing–Gong
    enumeration — linearize any real-time-minimal operation the spec can
    accept, backtrack on dead ends — memoized on (linearized-set,
    spec-state).

    This subsumes the conservation checks (a lost or duplicated element
    has no linearization) and additionally rejects histories where each
    individual result is plausible but no single atomic order explains
    them all — e.g. two steals both claiming the same element, or a
    [try_add] failing while the segment verifiably had room for its whole
    duration.

    The one deliberate weakening: an empty steal (or transfer) is always
    legal, because the shipped [steal_half] and [steal_into] probe ring and
    inbox in two separate reads and can therefore miss elements that were
    never absent simultaneously — a spurious failure the pool's callers
    tolerate by design. *)

type _ call =
  | Add : int -> unit call
  | Try_add : int -> bool call
  | Spill : int -> bool call
  | Remove : int option call
  | Steal : int list call
  | Reserve : int -> int call
  | Transfer : (int * int option) -> (int * int) option call
      (** A ring-to-ring steal from the recorded segment (the victim) into
          segment [into], consuming the reservation it names:
          [(into, reserved)]. The result is the oldest element taken and
          the number of elements claimed, or [None]. The spec lets the
          [claimed - 1] banked elements be any elements of the victim's
          bag other than the returned one: the scenarios' final drains
          check element identity. *)

type t

exception Not_linearizable of string
(** No linearization exists; the message dumps the recorded history with
    real-time intervals. *)

val create : unit -> t
(** A fresh, empty history. Scenarios create one per instance, so each
    explored schedule records into its own recorder. *)

val declare_seg : t -> id:int -> capacity:int option -> unit
(** Register a segment before recording operations on it. [capacity]
    [None] means unbounded. *)

val record : t -> fiber:int -> seg:int -> 'r call -> (unit -> 'r) -> 'r
(** [record t ~fiber ~seg call f] runs [f ()] bracketed by invocation and
    response timestamps and appends the completed event. Setup and
    check-time operations recorded outside the scheduled run (use [fiber =
    -1]) order before/after all concurrent events automatically, since the
    clock is global. *)

val check : t -> unit
(** Decide linearizability of everything recorded so far; raise
    {!Not_linearizable} if no witness order exists. *)
