(** The segment as a functor over {!Mc_prim.S}.

    [mc_segment_core.ml] is generated at build time from [mc_segment.ml]
    (see this directory's dune file): the same text, wrapped in
    [module Make (Prim : Mc_prim.S) = struct ... end]. {!Mc_segment} is
    that text compiled against the hardware {!Prim}, where the operations,
    the ring protocol and the ownership discipline are documented. The
    interleaving checker applies [Make] to its instrumented shims
    ([Cpool_analysis.Sched.Prim]), whose every atomic operation is a
    scheduling point, so the schedule enumeration exercises the shipped
    segment logic — including the copy-then-CAS front-window claim shared
    by owner pops, stealers and ring-to-ring transfers, and the MPSC inbox
    push/drain — not a hand-written model of it. *)

module Make (Prim : Mc_prim.S) : sig
  type 'a took = Missed | Took of 'a * int

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
  val stats : 'a t -> Mc_stats.t
  val invariant_ok : 'a t -> bool
  val debug_counts : 'a t -> int * int
end
