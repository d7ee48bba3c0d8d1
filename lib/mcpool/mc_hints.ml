(* The hint board for the Hinted search algorithm (paper Section 5), ported
   to shared memory: one claimable slot per segment. A searcher that swept
   every segment empty publishes its slot and parks; an adder claims a
   published slot with one CAS and delivers its element straight into the
   parked searcher's segment (via the segment's spill inbox), skipping its
   own segment entirely.

   The board is atomics-only, and so is the [spill_add] a delivery makes
   after the board transition committed: a hinted hand-off takes no lock.
   Slot lifecycle:

     Free --publish (owner store)--> Published
     Published --retract (owner CAS)--> Free
     Published --try_claim (adder CAS)--> Claimed --release (adder store)--> Free

   Only the slot's owner (the one searcher registered on that segment)
   performs Free->Published and the retract CAS; the two CASes on
   [Published] linearize the race between a retracting searcher and a
   claiming adder, so exactly one side wins each published hint. A slot the
   adder holds [Claimed] is owned by that adder until its [release] store —
   the searcher meanwhile waits for [Free] (the adder is one bounded
   [spill_add] away from releasing, never blocked on the searcher).

   [waiting] is a conservative advertisement so adders with no parked
   searchers pay one read, not a board scan. It is bumped after the state
   store and decremented by whichever side consumes the hint, so it can
   momentarily disagree with the number of [Published] slots in either
   direction; both misreadings are benign (a futile scan, or a missed
   hand-off that falls back to a normal add). *)

(* Like mc_segment.ml, this file is compiled twice: as [Mc_hints] against
   the hardware [Prim], and as the functor [Mc_hints_core.Make] over
   [Mc_prim.S] that the interleaving checker runs (see this directory's
   dune file). *)

type state = Free | Published | Claimed

type t = { board : state Prim.Atomic.t array; waiting : int Prim.Atomic.t }

type retract_outcome = Retracted | Claim_pending

let create ~slots () =
  if slots <= 0 then invalid_arg "Mc_hints.create: slots must be positive";
  {
    board = Array.init slots (fun _ -> Prim.Atomic.make_padded Free);
    waiting = Prim.Atomic.make_padded 0;
  }

let slots t = Array.length t.board

let waiters t = Prim.Atomic.get t.waiting

let publish t i =
  (* Owner-only Free -> Published, so a plain store suffices. State
     first, count second: an adder that reads the stale count either
     scans in vain or misses this hint for one round — never claims a
     slot that is not Published. *)
  Prim.Atomic.set t.board.(i) Published;
  ignore (Prim.Atomic.fetch_and_add t.waiting 1)

let try_claim ?order t ~from =
  let p = Array.length t.board in
  (* Visit slots in [order] when given (topology-aware pools pass the
     claimer's near-first permutation so nearby parked searchers win);
     default to the ring from the claimer's own slot, like the spill
     scan. The claimer's own slot is skipped either way — never useful
     to claim. Take the first published hint that the CAS wins. *)
  let slot_at k = match order with None -> (from + k) mod p | Some o -> o.(k) in
  let rec scan k =
    if k = p then None
    else
      let w = slot_at k in
      if
        w <> from
        && Prim.Atomic.get t.board.(w) == Published
        && Prim.Atomic.compare_and_set t.board.(w) Published Claimed
      then begin
        ignore (Prim.Atomic.fetch_and_add t.waiting (-1));
        Some w
      end
      else scan (k + 1)
  in
  scan (match order with None -> 1 | Some _ -> 0)

let release t w =
  (* Claimed -> Free; only the adder whose CAS won holds the slot, so a
     plain store suffices. The parked owner polls for exactly this. *)
  Prim.Atomic.set t.board.(w) Free

let retract t i =
  if Prim.Atomic.compare_and_set t.board.(i) Published Free then begin
    ignore (Prim.Atomic.fetch_and_add t.waiting (-1));
    Retracted
  end
  else
    (* The CAS can only lose to an adder's claim: the owner must await
       [is_free] (the adder's release) and then check its own segment —
       a delivery may have landed. *)
    Claim_pending

let is_published t i = Prim.Atomic.get t.board.(i) == Published

let is_free t i = Prim.Atomic.get t.board.(i) == Free

let published_count t =
  Array.fold_left
    (fun acc s -> if Prim.Atomic.get s == Published then acc + 1 else acc)
    0 t.board
