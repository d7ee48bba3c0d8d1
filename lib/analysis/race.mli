(** Vector-clock happens-before tracking and plain-access race detection
    for one scheduled execution.

    {!Sched} creates one {!t} per run and drives it from two sides:
    - every scheduled synchronisation step calls {!step} plus
      {!acquire}/{!release} according to its access kind (atomic reads
      acquire, atomic writes and RMWs acquire and release, mutex lock
      acquires, unlock releases);
    - the instrumented plain cells ([Sched.Prim.Plain], and each index of
      a [Sched.Prim.Slots] array) report their accesses through
      {!plain_read}/{!plain_write}, which raise {!Race} when two fibers
      touch the same cell unsynchronized (at least one writing) — the
      happens-before definition of a data race, caught on {e any} explored
      interleaving, whether or not the racy pair executed adjacently.

    The thread clocks double as the happens-before oracle for the DPOR
    backtracking rule ({!snapshot}/{!ordered_before}). Edges are
    under-approximated relative to label-based dependence (reads do not
    release), the safe direction for both uses. *)

module Vclock : sig
  type t

  val make : int -> t
  (** All-zero clock of the given width. *)

  val copy : t -> t
  val tick : t -> int -> unit
  val merge_into : into:t -> t -> unit
  val leq : t -> t -> bool
end

exception Race of string
(** Two unsynchronized plain accesses, at least one a write: a data race in
    code that must be data-race free. The message names the cell and both
    fibers. *)

type t

val create : nthreads:int -> t

val step : t -> tid:int -> unit
(** Advance [tid]'s own clock component (one scheduled step). *)

val acquire : t -> tid:int -> oid:int -> unit
(** Merge sync object [oid]'s release clock into [tid]'s clock. *)

val release : t -> tid:int -> oid:int -> unit
(** Merge [tid]'s clock into sync object [oid]'s release clock. *)

val snapshot : t -> tid:int -> Vclock.t
(** Copy of [tid]'s current clock (the clock of its latest step). *)

val ordered_before : t -> Vclock.t -> tid:int -> bool
(** [ordered_before t c ~tid]: does the step whose clock was [c] happen
    before [tid]'s current point ([c <= clock tid])? The DPOR backtracking
    filter. *)

val plain_read : t -> tid:int -> oid:int -> unit
val plain_write : t -> tid:int -> oid:int -> unit
