(** Claimable hint board for the [Hinted] search algorithm (paper §5).

    One slot per segment. A searcher that swept every segment empty
    {!publish}es its slot and parks; an adder {!try_claim}s any published
    slot with a single CAS, deposits its element into that searcher's
    segment (through the segment's spill inbox) and {!release}s the slot.
    The searcher leaves the parked state by {!retract}ing its hint — and
    when the retract CAS loses, by waiting for the winning adder's release
    and checking its own segment for the delivery.

    The board is atomics-only, and so is the delivering adder's
    [spill_add]: a hinted hand-off takes no lock.

    Like {!Mc_segment}, this is the hardware compilation (against {!Prim})
    of a file that is also compiled as the functor [Mc_hints_core.Make]
    over {!Mc_prim.S}, so the interleaving checker enumerates every
    schedule of the shipped code. *)

type t

(** What a searcher's {!retract} observed. *)
type retract_outcome =
  | Retracted  (** The hint was withdrawn unclaimed. *)
  | Claim_pending
      (** An adder's claim won the CAS race: a delivery is in flight into
          the searcher's segment. Await {!is_free}, then poll the
          segment. *)

val create : slots:int -> unit -> t
(** One slot per segment. Raises [Invalid_argument] if [slots <= 0]. *)

val slots : t -> int

val waiters : t -> int
(** Conservative count of published hints — the adders' cheap "anyone
    parked?" read. May lag the board by a transition in either direction;
    exact at quiescence. *)

val publish : t -> int -> unit
(** [publish t i] marks slot [i] claimable. Only slot [i]'s owner (the
    searcher registered on segment [i]) may call it, and only when the
    slot is [Free]. *)

val try_claim : ?order:int array -> t -> from:int -> int option
(** [try_claim t ~from] scans the ring starting after slot [from] (the
    claimer's own slot is never examined) and CAS-claims the first
    published hint. [Some w] obliges the caller to attempt the delivery
    into segment [w] and then {!release} [w]. [?order] overrides the scan
    order with an explicit slot permutation (topology-aware pools pass
    the claimer's near-first order so nearby parked searchers are claimed
    before far ones); [from] is still skipped. *)

val release : t -> int -> unit
(** [release t w] frees a slot the caller claimed, after the delivery
    attempt (successful or not). *)

val retract : t -> int -> retract_outcome
(** [retract t i] withdraws slot [i]'s published hint. Owner-only. *)

val is_published : t -> int -> bool

val is_free : t -> int -> bool
(** After a [Claim_pending] retract, [is_free t i] turning true means the
    winning adder released the slot — its delivery attempt is complete. *)

val published_count : t -> int
(** Exact scan of the board (checker/debug; racy while workers run). *)
