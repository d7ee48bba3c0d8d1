(** Synchronisation primitives the multicore segment and the hint board
    are written against.

    [mc_segment.ml] and [mc_hints.ml] are each compiled twice: once as the
    hardware modules {!Mc_segment} and {!Mc_hints}, against {!Prim}, whose
    hot operations are [external]s that inline at every call site; and once
    as the functors [Mc_segment_core.Make] and [Mc_hints_core.Make] over
    {!S}, which the interleaving checker applies to its instrumented shims
    ([Cpool_analysis.Sched.Prim]). The shims turn every primitive operation
    into a scheduling point and let a bounded DFS enumerate all
    interleavings. Because the functor build sees only {!S}, a use of any
    operation outside it fails to compile.

    Four modules: [Atomic] and [Mutex] are the synchronising operations
    (scheduling points under the checker; the segment itself takes no
    lock); [Plain] is one unsynchronised cell and [Slots] a fixed-length
    array of them (race-checked under the checker, never scheduling
    points). On hardware ({!Prim}) a [Slots.t] is one bare array, so the
    segment's ring costs one block, not one box per slot. *)

module type ATOMIC = sig
  type 'a t

  val make : 'a -> 'a t

  val make_padded : 'a -> 'a t
  (** Like [make], but placed so that neighbouring allocations do not share
      its cache line (best-effort: see [Cpool_util.Pad]). Use for per-domain
      hot atomics written from different domains. *)

  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit

  val exchange : 'a t -> 'a -> 'a
  (** [exchange r v] installs [v] and returns the previous value, atomically.
      The single-step drain of the MPSC spill inbox: the owner swaps the
      whole stack for [[]] without a window where pushes could be lost. *)

  val fetch_and_add : int t -> int -> int

  val compare_and_set : 'a t -> 'a -> 'a -> bool
  (** [compare_and_set r seen v] installs [v] iff the current value is
      physically equal to [seen]; returns whether it did. The building block
      for bound-exact capacity claims. *)
end

module type MUTEX = sig
  type t

  val create : unit -> t
  val lock : t -> unit
  val unlock : t -> unit
end

(** A tracked plain (non-atomic) mutable cell. Shared mutable state that is
    deliberately unsynchronized — the owner-only scrub cursor here, the
    ring's element slots in the array form {!SLOTS} — lives in tracked
    cells rather than bare [mutable] fields so the interleaving checker's
    shim can feed every access to its happens-before race detector: an
    access the protocol does not actually order gets reported instead of
    silently relying on luck. *)
module type PLAIN = sig
  type 'a t

  val make : 'a -> 'a t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit

  val racy_get : 'a t -> 'a
  (** A sanctioned racy read: the caller certifies the value is treated as
      garbage unless a subsequent CAS (or equivalent) validates that no
      conflicting write intervened — the copy-then-claim window copy. The
      checker exempts it from race reporting; [get]/[set] stay checked. *)
end

(** A fixed-length array of tracked plain cells: [Plain] semantics per
    index, without a separately allocated box per index. The segment's ring
    slots live here. Under the checker every index is its own cell for race
    detection (a write to slot [i] never conflicts with slot [j]); on
    hardware it is a bare array. *)
module type SLOTS = sig
  type 'a t

  val make : int -> 'a -> 'a t
  (** [make n v]: [n] cells, all holding [v]. *)

  val length : 'a t -> int
  val get : 'a t -> int -> 'a
  val set : 'a t -> int -> 'a -> unit

  val racy_get : 'a t -> int -> 'a
  (** The sanctioned racy read of one index, as {!PLAIN.racy_get}. *)
end

module type S = sig
  module Atomic : ATOMIC
  module Mutex : MUTEX
  module Plain : PLAIN
  module Slots : SLOTS
end
