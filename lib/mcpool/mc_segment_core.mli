(** The segment implementation, as a functor over {!Mc_prim.S}.

    {!Mc_segment} is [Make (Mc_prim.Real)] — the hardware instantiation,
    where the operations, the ring protocol and the ownership discipline
    are documented. The interleaving checker instantiates the very same
    code with instrumented shims ([Cpool_analysis.Sched.Prim]) whose every
    atomic operation is a scheduling point, so the schedule enumeration
    exercises the shipped segment logic — including the copy-then-CAS
    front-window claim shared by owner pops, stealers and ring-to-ring
    transfers, and the MPSC inbox push/drain — not a hand-written model of
    it. *)

(** What {!SEG.steal_into} moved: [Took (x, w)] when it claimed [w >= 1]
    elements, the oldest [x] returned to the caller and the other [w - 1]
    banked in the thief's own segment; [Missed] when it found none. *)
type 'a took = Missed | Took of 'a * int

module type SEG = sig
  type 'a t

  val make : ?capacity:int -> id:int -> unit -> 'a t
  val id : 'a t -> int
  val capacity : 'a t -> int option
  val size : 'a t -> int
  val add : 'a t -> 'a -> unit
  val try_add : 'a t -> 'a -> bool
  val spill_add : 'a t -> 'a -> bool
  val spare : 'a t -> int
  val try_remove : 'a t -> 'a option
  val steal_half : ?max_take:int -> 'a t -> 'a Cpool.Steal.loot
  val steal_into : ?reserved:int -> 'a t -> into:'a t -> 'a took
  val reserve : 'a t -> int -> int

  val inbox_length : 'a t -> int
  (** Racy snapshot of the MPSC spill-inbox length (walks the stack). *)

  val stats : 'a t -> Mc_stats.t
  val invariant_ok : 'a t -> bool

  val debug_counts : 'a t -> int * int
  (** [(count, stored)]: unlocked snapshot of the atomic count and the
      stored element count, for checker invariants ([count <= capacity] at
      every instant; [count = stored] at quiescence). Not linearizable —
      harness use only. *)
end

module Make (P : Mc_prim.S) : SEG
