(** The hint board as a functor over {!Mc_prim.S}.

    [mc_hints_core.ml] is generated at build time from [mc_hints.ml] (see
    this directory's dune file): the same text, wrapped in
    [module Make (Prim : Mc_prim.S) = struct ... end]. {!Mc_hints} is that
    text compiled against the hardware {!Prim}, where the board is
    documented; the interleaving checker applies [Make] to its
    instrumented shims. *)

module Make (Prim : Mc_prim.S) : sig
  type t

  type retract_outcome = Retracted | Claim_pending

  val create : slots:int -> unit -> t
  val slots : t -> int
  val waiters : t -> int
  val publish : t -> int -> unit
  val try_claim : ?order:int array -> t -> from:int -> int option
  val release : t -> int -> unit
  val retract : t -> int -> retract_outcome
  val is_published : t -> int -> bool
  val is_free : t -> int -> bool
  val published_count : t -> int
end
