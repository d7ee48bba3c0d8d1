(** Deterministic stateless model checker: bounded DFS over fiber
    interleavings with dynamic partial-order reduction.

    Threads are cooperative fibers (OCaml effects) whose only scheduling
    points are the shimmed primitive operations in {!Prim}: every
    [Atomic.get]/[set]/[fetch_and_add]/[compare_and_set] and
    [Mutex.lock]/[unlock] yields to the scheduler before executing
    atomically, labelled with the accessed object and access kind.
    {!explore} enumerates schedules of a terminating scenario by rerunning
    it from scratch, forcing a different choice prefix each time.

    Two modes:
    - {!Exhaustive} — the classic full DFS: every schedule of the scenario,
      kept as ground truth.
    - {!Dpor} (default) — Flanagan–Godefroid dynamic partial-order
      reduction with sleep sets: schedules that only commute independent
      (different-object, or read–read) steps are explored once. Sound for
      everything the checks can observe — any invariant violation,
      linearizability failure or data race reachable by the exhaustive DFS
      is reached by the reduced one.

    Plain cells ({!Prim.Plain}, and each index of a {!Prim.Slots} array)
    are not scheduling points; their accesses are instead checked against a
    vector-clock happens-before relation ({!Race}), so an unsynchronized
    access pair raises [Race.Race] on any explored interleaving, adjacent
    or not.

    A fiber attempting to lock a held mutex blocks (it is not schedulable
    until the holder unlocks); if no fiber is runnable and some are
    blocked, the run raises {!Deadlock}. *)

type lk

(** Shim primitives satisfying {!Mc_prim.S}; instantiate
    [Mc_segment_core.Make (Sched.Prim)] to run the production segment code
    under the scheduler. Outside a run the operations execute directly, so
    scenario setup and invariant probes can use them freely. *)
module Prim : Cpool_mc.Mc_prim.S with type Mutex.t = lk

exception Deadlock
(** No fiber runnable, but not all are done: the schedule self-deadlocked. *)

exception Exploded of string
(** The step or schedule bound was exceeded — the scenario is too large to
    enumerate; shrink it (or use {!Dpor}). The message names the numeric
    bound that was hit. *)

type instance = {
  threads : (unit -> unit) list;  (** the fibers, started in order *)
  check_step : unit -> unit;
      (** invariant probe, run after every primitive step; raise to fail *)
  check_final : unit -> unit;
      (** conservation check, run once per completed schedule; raise to
          fail *)
}

type mode = Dpor | Exhaustive

type stats = {
  schedules : int;  (** completed schedules (checked to the end) *)
  pruned : int;
      (** executions cut short by sleep-set blocking — redundant
          interleavings detected before completion; always [0] under
          {!Exhaustive} *)
}

val explore_stats :
  ?mode:mode -> ?max_schedules:int -> (unit -> instance) -> stats
(** [explore_stats make] explores [make ()] (a fresh instance per schedule
    — the scenario must be a deterministic function of its construction)
    and returns the exploration counts. Any exception from a fiber or a
    check propagates, failing the exploration. [max_schedules] bounds
    completed schedules (default [1_000_000]); exceeding it raises
    {!Exploded}. *)

val explore : ?mode:mode -> ?max_schedules:int -> (unit -> instance) -> int
(** [explore make] is [(explore_stats make).schedules]. *)
