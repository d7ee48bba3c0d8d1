(* The production segment logic on the instrumented primitives: the checker
   exercises the shipped code, not a model of it.

   Ownership discipline (enforced by Mc_pool, assumed by the segment): one
   fiber per segment plays the OWNER and is the only caller of
   add/try_add/try_remove/reserve on it, and the only one that transfers
   into it (steal_into ~into); every other fiber reaches that segment only
   through spill_add, steal_half and steal_into with it as the victim. The
   scenarios below respect this, because that is the protocol whose
   interleavings we must certify. *)
module M = Cpool_mc.Mc_segment_core.Make (Sched.Prim)

(* The hint board on the same instrumented primitives: the hinted hand-off
   scenarios below compose it with M's spill inbox exactly as
   Mc_pool.try_deliver / the parked hunt do. *)
module H = Cpool_mc.Mc_hints_core.Make (Sched.Prim)

type scenario = { name : string; instance : unit -> Sched.instance }

let failf name fmt = Printf.ksprintf (fun m -> failwith (name ^ ": " ^ m)) fmt

(* Always-invariant: the atomic count (stored + reservations) respects the
   bound at every primitive step — the property PR 1's races violated. *)
let bound_ok name seg () =
  let count, _stored = M.debug_counts seg in
  if count < 0 then failf name "count went negative (%d)" count;
  match M.capacity seg with
  | Some b when count > b -> failf name "capacity exceeded: count %d > bound %d" count b
  | Some _ | None -> ()

let all_of checks () = List.iter (fun f -> f ()) checks

(* Quiescent invariant: with no thread mid-operation, the count equals the
   stored length (no reservation leaked) and invariant_ok agrees. *)
let quiescent name seg =
  let count, stored = M.debug_counts seg in
  if count <> stored then
    failf name "reservation leaked: count %d <> stored %d at quiescence" count stored;
  if not (M.invariant_ok seg) then failf name "invariant_ok failed at quiescence"

let stored seg = snd (M.debug_counts seg)

let loot_list = function
  | Cpool.Steal.Nothing -> []
  | Cpool.Steal.Single x -> [ x ]
  | Cpool.Steal.Batch (x, rest) -> x :: rest

(* Linearizability recording: every segment operation a scenario performs
   goes through one of these wrappers, so each explored schedule leaves a
   complete invocation/response history for [Linz.check] (called from the
   scenario's [check_final]). Setup operations before the run record as
   fiber [-1]; their intervals complete before any fiber starts, so the
   oracle orders them first automatically. The wrappers themselves add no
   scheduling points — schedule counts are unchanged by recording. *)
let l_add h f seg s x = Linz.record h ~fiber:f ~seg (Linz.Add x) (fun () -> M.add s x)

let l_try_add h f seg s x =
  Linz.record h ~fiber:f ~seg (Linz.Try_add x) (fun () -> M.try_add s x)

let l_spill h f seg s x =
  Linz.record h ~fiber:f ~seg (Linz.Spill x) (fun () -> M.spill_add s x)

let l_remove h f seg s =
  Linz.record h ~fiber:f ~seg Linz.Remove (fun () -> M.try_remove s)

let l_steal h f seg s max_take =
  Linz.record h ~fiber:f ~seg Linz.Steal (fun () ->
      loot_list (M.steal_half ?max_take s))

let l_reserve h f seg s k =
  Linz.record h ~fiber:f ~seg (Linz.Reserve k) (fun () -> M.reserve s k)

(* A ring-to-ring steal from [victim] (segment [seg]) into the fiber's own
   segment [into] (id [into_id]), recorded as one two-segment call. *)
let l_transfer h f seg victim ~into_id ~into reserved =
  Linz.record h ~fiber:f ~seg (Linz.Transfer (into_id, reserved)) (fun () ->
      match M.steal_into ?reserved victim ~into with
      | M.Missed -> None
      | Took (x, w) -> Some (x, w))

(* Quiescent only: everything left in [segs], taken with the owner's pop
   (direct calls, not recorded for [Linz]). *)
let drain_all segs =
  let rec drain s acc = match M.try_remove s with Some x -> drain s (x :: acc) | None -> acc in
  List.fold_left (fun acc s -> drain s acc) [] segs

(* Element identity: [got] is exactly the multiset [want]. *)
let same_elements name got want =
  let got = List.sort compare got in
  if got <> List.sort compare want then
    failf name "elements lost or duplicated: [%s]"
      (String.concat ";" (List.map string_of_int got))

(* The owner's try_add racing a foreign spill_add on a capacity-2 segment:
   the CAS capacity claims must admit exactly as many elements as fit, at
   most one of the two paths winning the last unit. *)
let try_add_capacity () =
  let name = "try-add capacity race" in
  let h = Linz.create () in
  Linz.declare_seg h ~id:0 ~capacity:(Some 2);
  let seg = M.make ~capacity:2 ~id:0 () in
  let ok = Array.make 2 0 in
  let owner () =
    List.iter (fun x -> if l_try_add h 0 0 seg x then ok.(0) <- ok.(0) + 1) [ 1; 2 ]
  in
  let spiller () = if l_spill h 1 0 seg 3 then ok.(1) <- 1 in
  {
    Sched.threads = [ owner; spiller ];
    check_step = bound_ok name seg;
    check_final =
      (fun () ->
        quiescent name seg;
        let n = stored seg in
        if ok.(0) + ok.(1) <> n then
          failf name "successful adds %d <> stored %d" (ok.(0) + ok.(1)) n;
        if n <> 2 then failf name "expected the segment full (2), stored %d" n;
        Linz.check h);
  }

(* A thief (steal_into its own segment, the unbounded pool path) races the
   victim's owner pushing: no element is lost or duplicated. *)
let steal_vs_add () =
  let name = "steal_into vs add conservation" in
  let h = Linz.create () in
  Linz.declare_seg h ~id:0 ~capacity:None;
  Linz.declare_seg h ~id:1 ~capacity:None;
  let victim = M.make ~id:0 () in
  let own = M.make ~id:1 () in
  List.iter (l_add h (-1) 0 victim) [ 1; 2; 3 ];
  let returned = ref [] in
  let thief () =
    match l_transfer h 0 0 victim ~into_id:1 ~into:own None with
    | None -> ()
    | Some (x, _) -> returned := [ x ]
  in
  let adder () = l_add h 1 0 victim 4 in
  {
    Sched.threads = [ thief; adder ];
    check_step = all_of [ bound_ok name victim; bound_ok name own ];
    check_final =
      (fun () ->
        quiescent name victim;
        quiescent name own;
        let total = stored victim + stored own + List.length !returned in
        if total <> 4 then failf name "conservation broken: %d elements of 4" total;
        Linz.check h;
        same_elements name (!returned @ drain_all [ victim; own ]) [ 1; 2; 3; 4 ]);
  }

(* The bounded steal path (reserve room, steal_into at most that, release
   the rest) racing a foreign spill_add into the thief's segment: the
   reservation must keep the bound intact at every instant and be released
   exactly by the transfer. *)
let reserve_transfer_race () =
  let name = "reserve/steal_into vs spill_add" in
  let h = Linz.create () in
  Linz.declare_seg h ~id:0 ~capacity:(Some 4);
  Linz.declare_seg h ~id:1 ~capacity:(Some 2);
  let victim = M.make ~capacity:4 ~id:0 () in
  let own = M.make ~capacity:2 ~id:1 () in
  List.iter (fun x -> assert (l_try_add h (-1) 0 victim x)) [ 1; 2; 3 ];
  assert (l_try_add h (-1) 1 own 10);
  let returned = ref [] in
  let rival_ok = ref [] in
  let thief () =
    (* Mirrors Mc_pool.attempt_steal's bounded branch. *)
    let want = (M.size victim + 1) / 2 in
    let reserved = l_reserve h 0 1 own (max 0 (want - 1)) in
    match l_transfer h 0 0 victim ~into_id:1 ~into:own (Some reserved) with
    | None -> ()
    | Some (x, _) -> returned := [ x ]
  in
  let rival () = if l_spill h 1 1 own 11 then rival_ok := [ 11 ] in
  {
    Sched.threads = [ thief; rival ];
    check_step = all_of [ bound_ok name victim; bound_ok name own ];
    check_final =
      (fun () ->
        quiescent name victim;
        quiescent name own;
        let total = stored victim + stored own + List.length !returned in
        let want = 4 + List.length !rival_ok in
        if total <> want then failf name "conservation broken: %d elements of %d" total want;
        Linz.check h;
        same_elements name
          (!returned @ drain_all [ victim; own ])
          ([ 1; 2; 3; 10 ] @ !rival_ok));
  }

(* Three threads on one segment: the owner popping, a foreign spill_add,
   and a stealer that may hit either the ring or steal_half's
   inbox-fallback branch — the shipped lock-free owner pop racing both.
   One element is preloaded into the ring and one into the inbox, so the
   stealer's ring-claim and inbox-pop branches, the owner's direct claim
   and its exchange-drain are all reachable depending on the schedule. *)
let three_way () =
  let name = "owner pop vs spill vs inbox steal (3 threads)" in
  let h = Linz.create () in
  Linz.declare_seg h ~id:0 ~capacity:None;
  let seg = M.make ~id:0 () in
  assert (l_try_add h (-1) 0 seg 1);
  assert (l_spill h (-1) 0 seg 2);
  let popped = ref 0 in
  let stolen = ref 0 in
  let owner () = match l_remove h 0 0 seg with Some _ -> popped := 1 | None -> () in
  let spiller () = ignore (l_spill h 1 0 seg 3) in
  let stealer () =
    match l_steal h 2 0 seg (Some 1) with
    | [] -> ()
    | loot -> stolen := List.length loot
  in
  {
    Sched.threads = [ owner; spiller; stealer ];
    check_step = bound_ok name seg;
    check_final =
      (fun () ->
        quiescent name seg;
        (* 2 preloaded + 1 spilled, of which the stealer takes at most one
           and the owner (never finding the segment empty) exactly one. *)
        if !popped <> 1 then failf name "owner pop found the segment empty";
        let total = stored seg + !popped + !stolen in
        if total <> 3 then failf name "conservation broken: %d elements of 3" total;
        Linz.check h);
  }

(* Two stealers racing CAS claims of the same ring front: the loot sets
   must be disjoint and conservation must hold — a claim-arbitration bug
   would hand an element to both thieves (the CAS succeeding twice from
   the same [top]) or strand one below the advanced cursor. *)
let steal_vs_steal () =
  let name = "steal vs steal CAS race" in
  let h = Linz.create () in
  Linz.declare_seg h ~id:0 ~capacity:None;
  let seg = M.make ~id:0 () in
  List.iter (l_add h (-1) 0 seg) [ 1; 2; 3; 4 ];
  let loots = Array.make 2 [] in
  let thief i () = loots.(i) <- l_steal h i 0 seg (Some 2) in
  {
    Sched.threads = [ thief 0; thief 1 ];
    check_step = bound_ok name seg;
    check_final =
      (fun () ->
        quiescent name seg;
        let disjoint =
          List.for_all (fun x -> not (List.mem x loots.(1))) loots.(0)
        in
        if not disjoint then
          failf name "loot not disjoint: [%s] vs [%s]"
            (String.concat ";" (List.map string_of_int loots.(0)))
            (String.concat ";" (List.map string_of_int loots.(1)));
        same_elements name (loots.(0) @ loots.(1) @ drain_all [ seg ]) [ 1; 2; 3; 4 ];
        Linz.check h);
  }

(* The one-element boundary: an owner pop and a steal racing for the last
   ring element. Both sides claim the same front window with the same CAS,
   so exactly one must win the element and the other must walk away with
   nothing — no duplication, no loss, no deadlock. *)
let pop_vs_steal_one () =
  let name = "one-element owner/stealer boundary" in
  let h = Linz.create () in
  Linz.declare_seg h ~id:0 ~capacity:None;
  let seg = M.make ~id:0 () in
  l_add h (-1) 0 seg 42;
  let popped = ref [] in
  let stolen = ref [] in
  let owner () =
    match l_remove h 0 0 seg with Some x -> popped := [ x ] | None -> ()
  in
  let stealer () = stolen := l_steal h 1 0 seg (Some 1) in
  {
    Sched.threads = [ owner; stealer ];
    check_step = bound_ok name seg;
    check_final =
      (fun () ->
        quiescent name seg;
        (match (!popped, !stolen) with
        | [ 42 ], [] | [], [ 42 ] -> ()
        | [], [] -> failf name "element lost: neither side took it"
        | _ ->
          failf name "element duplicated: popped [%s], stolen [%s]"
            (String.concat ";" (List.map string_of_int !popped))
            (String.concat ";" (List.map string_of_int !stolen)));
        if stored seg <> 0 then failf name "segment not empty at quiescence";
        Linz.check h);
  }

(* The MPSC inbox under fire: a foreign spiller CAS-pushing two elements
   while the owner's pop exchange-drains the stack into the ring. The
   drain must never lose a concurrent push (the exchange takes the whole
   stack or leaves the push for the next round), and every element must
   end exactly once in popped + stored. *)
let mpsc_push_vs_drain () =
  let name = "MPSC push vs exchange-drain" in
  let h = Linz.create () in
  Linz.declare_seg h ~id:0 ~capacity:None;
  let seg = M.make ~id:0 () in
  assert (l_spill h (-1) 0 seg 1);
  let popped = ref [] in
  let spilled = ref 1 in
  let owner () =
    match l_remove h 0 0 seg with Some x -> popped := [ x ] | None -> ()
  in
  let spiller () =
    if l_spill h 1 0 seg 2 then incr spilled;
    if l_spill h 1 0 seg 3 then incr spilled
  in
  {
    Sched.threads = [ owner; spiller ];
    check_step = bound_ok name seg;
    check_final =
      (fun () ->
        quiescent name seg;
        (* The inbox held an element before the run, so the owner's pop
           must drain and succeed regardless of the schedule. *)
        if !popped = [] then failf name "owner pop lost the drained elements";
        same_elements name (!popped @ drain_all [ seg ]) (List.init !spilled (fun i -> i + 1));
        Linz.check h);
  }

(* The heart of the new ring protocol: the owner's lock-free pop racing a
   stealer's window claim on the same segment. Checked with element
   identity, not just counts — a claim/revalidate bug would hand the same
   element to both sides (duplication) or to neither (loss). *)
let pop_vs_steal () =
  let name = "owner pop vs steal-claim" in
  let h = Linz.create () in
  Linz.declare_seg h ~id:0 ~capacity:None;
  let seg = M.make ~id:0 () in
  List.iter (l_add h (-1) 0 seg) [ 1; 2; 3 ];
  let popped = ref [] in
  let stolen = ref [] in
  let owner () =
    match l_remove h 0 0 seg with Some x -> popped := [ x ] | None -> ()
  in
  let stealer () = stolen := l_steal h 1 0 seg (Some 2) in
  {
    Sched.threads = [ owner; stealer ];
    check_step = bound_ok name seg;
    check_final =
      (fun () ->
        quiescent name seg;
        (* Every element accounted for exactly once. *)
        same_elements name (!popped @ !stolen @ drain_all [ seg ]) [ 1; 2; 3 ];
        Linz.check h);
  }

(* An owner push racing the full bounded banking dance on two segments: the
   victim's owner pushes while a thief reserves room in its own bounded
   segment and transfers a batch from the victim into it. Both bounds must
   hold at every step and every element must survive. *)
let push_vs_reserve () =
  let name = "owner push vs bounded reserve/steal_into" in
  let h = Linz.create () in
  Linz.declare_seg h ~id:0 ~capacity:(Some 3);
  Linz.declare_seg h ~id:1 ~capacity:(Some 2);
  let victim = M.make ~capacity:3 ~id:0 () in
  let own = M.make ~capacity:2 ~id:1 () in
  List.iter (fun x -> assert (l_try_add h (-1) 0 victim x)) [ 1; 2 ];
  let pushed = ref [] in
  let returned = ref [] in
  let owner () = if l_try_add h 0 0 victim 3 then pushed := [ 3 ] in
  let thief () =
    let want = (M.size victim + 1) / 2 in
    let reserved = l_reserve h 1 1 own (max 0 (want - 1)) in
    match l_transfer h 1 0 victim ~into_id:1 ~into:own (Some reserved) with
    | None -> ()
    | Some (x, _) -> returned := [ x ]
  in
  {
    Sched.threads = [ owner; thief ];
    check_step = all_of [ bound_ok name victim; bound_ok name own ];
    check_final =
      (fun () ->
        quiescent name victim;
        quiescent name own;
        let total = stored victim + stored own + List.length !returned in
        let want = 2 + List.length !pushed in
        if total <> want then failf name "conservation broken: %d elements of %d" total want;
        Linz.check h;
        same_elements name (!returned @ drain_all [ victim; own ]) ([ 1; 2 ] @ !pushed));
  }

(* The hinted hand-off's core race: a searcher publishing its hint and
   retracting it (the park/unpark edge) against an adder trying to claim it
   and deliver into the searcher's segment — Mc_pool.try_deliver vs the
   hinted hunt, on the shipped protocol. The retract CAS and the claim CAS
   linearize on the slot, so exactly one side must win, the element must
   land exactly once (delivered into the searcher's segment, or added to
   the adder's own), and the board must end Free with no waiter count
   leaked. *)
let hint_add_vs_park () =
  let name = "hint add vs park/retract" in
  let h = Linz.create () in
  Linz.declare_seg h ~id:0 ~capacity:None;
  Linz.declare_seg h ~id:1 ~capacity:None;
  let seeker = M.make ~id:0 () in
  let adder_seg = M.make ~id:1 () in
  let board = H.create ~slots:2 () in
  let retracted = ref false in
  let claimed = ref false in
  let searcher () =
    (* Publish, then immediately try to unpark — the tightest
       park-then-retract window. A lost retract means the adder's delivery
       is in flight; the post-run checks absorb it (awaiting the release
       in-fiber would spin the DFS through unbounded schedules). *)
    H.publish board 0;
    match H.retract board 0 with
    | H.Retracted -> retracted := true
    | H.Claim_pending -> ()
  in
  let adder () =
    match H.try_claim board ~from:1 with
    | Some w ->
      claimed := true;
      if w <> 0 then failf name "claimed slot %d, expected 0" w;
      if not (l_spill h 1 0 seeker 7) then failf name "unbounded spill_add rejected";
      H.release board w
    | None -> l_add h 1 1 adder_seg 7
  in
  {
    Sched.threads = [ searcher; adder ];
    check_step =
      (fun () ->
        bound_ok name seeker ();
        bound_ok name adder_seg ();
        (* The waiter count is conservative, not exact: publish stores the
           state and bumps the count in two steps, so a claim landing in
           between decrements first and the count transiently reads -1.
           With one hint it can never leave [-1, 1]; it must be exactly 0
           again at quiescence. *)
        let w = H.waiters board in
        if w < -1 || w > 1 then failf name "waiter count %d out of [-1, 1]" w);
    check_final =
      (fun () ->
        quiescent name seeker;
        quiescent name adder_seg;
        if !retracted && !claimed then failf name "hint both retracted and claimed";
        if (not !retracted) && not !claimed then
          failf name "hint neither retracted nor claimed";
        if H.waiters board <> 0 then
          failf name "waiter count leaked: %d" (H.waiters board);
        if not (H.is_free board 0) then failf name "slot 0 not Free at quiescence";
        let delivered = stored seeker and local = stored adder_seg in
        if delivered + local <> 1 then
          failf name "element lost or duplicated: %d delivered + %d local" delivered
            local;
        if !claimed && delivered <> 1 then failf name "claim won but no delivery landed";
        if !retracted && local <> 1 then
          failf name "retract won but the add left its own segment";
        Linz.check h);
  }

(* Two adders racing to claim the single published hint: the claim CAS must
   admit exactly one winner — the loser falls back to its own segment, the
   winner delivers into the parked searcher's — and the board must end Free
   with the waiter count at zero. The searcher is already parked (the board
   is seeded before the run), which is the state Mc_pool reaches before any
   adder can observe the hint. *)
let hint_double_claim () =
  let name = "hint double-claim" in
  let h = Linz.create () in
  Linz.declare_seg h ~id:0 ~capacity:None;
  Linz.declare_seg h ~id:1 ~capacity:None;
  Linz.declare_seg h ~id:2 ~capacity:None;
  let seeker = M.make ~id:0 () in
  let seg1 = M.make ~id:1 () in
  let seg2 = M.make ~id:2 () in
  let board = H.create ~slots:3 () in
  H.publish board 0;
  let wins = Array.make 2 false in
  let adder seg_id seg slot idx () =
    match H.try_claim board ~from:slot with
    | Some w ->
      wins.(idx) <- true;
      if w <> 0 then failf name "claimed slot %d, expected 0" w;
      if not (l_spill h idx 0 seeker (10 + idx)) then
        failf name "unbounded spill_add rejected";
      H.release board w
    | None -> l_add h idx seg_id seg (10 + idx)
  in
  {
    Sched.threads = [ adder 1 seg1 1 0; adder 2 seg2 2 1 ];
    check_step =
      (fun () ->
        bound_ok name seeker ();
        (* Seeded by a pre-run publish, so both transitions are complete:
           claims only ever decrement from a settled 1. *)
        let w = H.waiters board in
        if w < 0 || w > 1 then failf name "waiter count %d out of [0, 1]" w);
    check_final =
      (fun () ->
        quiescent name seeker;
        quiescent name seg1;
        quiescent name seg2;
        (match wins with
        | [| true; true |] -> failf name "both adders claimed the one hint"
        | [| false; false |] -> failf name "neither adder claimed the published hint"
        | _ -> ());
        if H.waiters board <> 0 then
          failf name "waiter count leaked: %d" (H.waiters board);
        if not (H.is_free board 0) then failf name "slot 0 not Free at quiescence";
        if stored seeker <> 1 then
          failf name "expected exactly one delivery, segment holds %d" (stored seeker);
        if stored seeker + stored seg1 + stored seg2 <> 2 then
          failf name "conservation broken: %d elements of 2"
            (stored seeker + stored seg1 + stored seg2);
        Linz.check h);
  }

(* ---- scenarios only the reduction can enumerate ---------------------- *)

(* Three stealers and the owner's pop converging on one ring: every claim
   CAS contends with every other, the doomed-thief copy window (the
   sanctioned racy read) is actually reachable, and loot disjointness is
   checked pairwise. Exhaustively this explodes past the schedule bound;
   under DPOR it completes, because most step pairs (distinct claim
   buffers, distinct loot cells) commute. *)
let three_stealers () =
  let name = "3 stealers vs owner pop" in
  let h = Linz.create () in
  Linz.declare_seg h ~id:0 ~capacity:None;
  let seg = M.make ~id:0 () in
  List.iter (l_add h (-1) 0 seg) [ 1; 2; 3; 4 ];
  let popped = ref [] in
  let loots = Array.make 3 [] in
  let owner () =
    match l_remove h 0 0 seg with Some x -> popped := [ x ] | None -> ()
  in
  let thief i () = loots.(i) <- l_steal h (i + 1) 0 seg (Some 2) in
  {
    Sched.threads = [ owner; thief 0; thief 1; thief 2 ];
    check_step = bound_ok name seg;
    check_final =
      (fun () ->
        quiescent name seg;
        let pairwise_disjoint =
          List.for_all
            (fun (i, j) ->
              List.for_all (fun x -> not (List.mem x loots.(j))) loots.(i))
            [ (0, 1); (0, 2); (1, 2) ]
        in
        if not pairwise_disjoint then failf name "stealer loot not disjoint";
        same_elements name
          (!popped @ loots.(0) @ loots.(1) @ loots.(2) @ drain_all [ seg ])
          [ 1; 2; 3; 4 ];
        Linz.check h);
  }

(* The full hint life cycle under three-way contention: a searcher
   publishes and immediately retracts (the park/unpark edge) while two
   adders race each other — and the retract — to claim the hint. At most
   one of the three CASes wins the slot; the element accounting and board
   state must come out exact in every outcome. *)
let hint_three_way () =
  let name = "hint publish/claim/expire three-way" in
  let h = Linz.create () in
  Linz.declare_seg h ~id:0 ~capacity:None;
  Linz.declare_seg h ~id:1 ~capacity:None;
  Linz.declare_seg h ~id:2 ~capacity:None;
  let seeker = M.make ~id:0 () in
  let seg1 = M.make ~id:1 () in
  let seg2 = M.make ~id:2 () in
  let board = H.create ~slots:3 () in
  let retracted = ref false in
  let wins = Array.make 2 false in
  let searcher () =
    H.publish board 0;
    match H.retract board 0 with
    | H.Retracted -> retracted := true
    | H.Claim_pending -> ()
  in
  let adder seg_id seg slot idx () =
    match H.try_claim board ~from:slot with
    | Some w ->
      wins.(idx) <- true;
      if w <> 0 then failf name "claimed slot %d, expected 0" w;
      if not (l_spill h (idx + 1) 0 seeker (10 + idx)) then
        failf name "unbounded spill_add rejected";
      H.release board w
    | None -> l_add h (idx + 1) seg_id seg (10 + idx)
  in
  {
    Sched.threads = [ searcher; adder 1 seg1 1 0; adder 2 seg2 2 1 ];
    check_step =
      (fun () ->
        bound_ok name seeker ();
        let w = H.waiters board in
        if w < -1 || w > 1 then failf name "waiter count %d out of [-1, 1]" w);
    check_final =
      (fun () ->
        quiescent name seeker;
        quiescent name seg1;
        quiescent name seg2;
        let claims = (if wins.(0) then 1 else 0) + if wins.(1) then 1 else 0 in
        if claims > 1 then failf name "both adders claimed the one hint";
        if !retracted && claims > 0 then
          failf name "hint both retracted and claimed";
        if H.waiters board <> 0 then
          failf name "waiter count leaked: %d" (H.waiters board);
        if not (H.is_free board 0) then failf name "slot 0 not Free at quiescence";
        if stored seeker <> claims then
          failf name "claims %d but %d deliveries" claims (stored seeker);
        if stored seeker + stored seg1 + stored seg2 <> 2 then
          failf name "conservation broken: %d elements of 2"
            (stored seeker + stored seg1 + stored seg2);
        Linz.check h);
  }

(* The MPSC inbox with two concurrent spillers against the owner's
   exchange-drain: push CASes contend with each other and with the drain's
   exchange. One spiller alone already saturates the exhaustive bound
   (473k schedules at the seed); two are far beyond it, but commute enough
   for the reduction. *)
let spill_spill_drain () =
  let name = "2 spillers vs exchange-drain" in
  let h = Linz.create () in
  Linz.declare_seg h ~id:0 ~capacity:None;
  let seg = M.make ~id:0 () in
  assert (l_spill h (-1) 0 seg 1);
  let popped = ref [] in
  let spilled = ref [ 1 ] in
  let spill_ok idx x = if l_spill h idx 0 seg x then spilled := x :: !spilled in
  let owner () =
    match l_remove h 0 0 seg with Some x -> popped := [ x ] | None -> ()
  in
  let spiller_a () =
    spill_ok 1 2;
    spill_ok 1 3
  in
  let spiller_b () =
    spill_ok 2 4;
    spill_ok 2 5
  in
  {
    Sched.threads = [ owner; spiller_a; spiller_b ];
    check_step = bound_ok name seg;
    check_final =
      (fun () ->
        quiescent name seg;
        if !popped = [] then failf name "owner pop lost the drained elements";
        same_elements name (!popped @ drain_all [ seg ]) !spilled;
        Linz.check h);
  }

(* Topology-aware stealing under the two-group preset: the thief walks the
   probe sequence the shared locality model dictates (own segment first,
   the far one second — exactly Mc_pool's near-first search on a two-node
   machine) while the victim's owner pops. The order is data, not
   synchronization, so the schedule space is pop-vs-steal's; what this
   certifies is that driving the steal from Cpool_topology.near_first_order
   preserves conservation and linearizability on every interleaving. *)
let near_steal_vs_pop () =
  let name = "near-first steal vs owner pop" in
  let topo = Cpool_topology.two_group ~nodes:2 () in
  let order = Cpool_topology.near_first_order topo ~from:1 in
  let h = Linz.create () in
  Linz.declare_seg h ~id:0 ~capacity:None;
  Linz.declare_seg h ~id:1 ~capacity:None;
  let segs = [| M.make ~id:0 (); M.make ~id:1 () |] in
  List.iter (l_add h (-1) 0 segs.(0)) [ 1; 2; 3 ];
  let popped = ref [] in
  let returned = ref [] in
  let thief () =
    (* Walks the near-first order like Mc_pool.search_pass: skip the own
       slot, transfer from the first non-empty victim into the own one. *)
    Array.iter
      (fun v ->
        if v <> 1 && !returned = [] then
          match l_transfer h 0 v segs.(v) ~into_id:1 ~into:segs.(1) None with
          | None -> ()
          | Some (x, _) -> returned := [ x ])
      order
  in
  let owner () =
    match l_remove h 1 0 segs.(0) with Some x -> popped := [ x ] | None -> ()
  in
  {
    Sched.threads = [ thief; owner ];
    check_step = all_of [ bound_ok name segs.(0); bound_ok name segs.(1) ];
    check_final =
      (fun () ->
        quiescent name segs.(0);
        quiescent name segs.(1);
        if order <> [| 1; 0 |] then failf name "near-first order from slot 1 must be [1;0]";
        (* A transfer of 3 takes at most 2, so the owner always finds one. *)
        if !popped = [] then failf name "owner pop found its own segment empty";
        let total =
          stored segs.(0) + stored segs.(1) + List.length !returned + List.length !popped
        in
        if total <> 3 then failf name "conservation broken: %d elements of 3" total;
        Linz.check h;
        same_elements name
          (!returned @ !popped @ drain_all [ segs.(0); segs.(1) ])
          [ 1; 2; 3 ]);
  }

(* The one race the ring-to-ring transfer adds: the thief stores the
   stolen tail past its own [bottom] while a rival steal_half copies from
   that same ring, and the victim's owner pushes meanwhile. The rival's
   copy may only ever see published slots, the thief's stores must stay
   inside its room check, and every element must come out exactly once. *)
let transfer_thief_steal () =
  let name = "steal_into vs add vs steal_half on the thief" in
  let h = Linz.create () in
  Linz.declare_seg h ~id:0 ~capacity:None;
  Linz.declare_seg h ~id:1 ~capacity:None;
  let victim = M.make ~id:0 () in
  let own = M.make ~id:1 () in
  List.iter (l_add h (-1) 0 victim) [ 1; 2; 3; 4 ];
  List.iter (l_add h (-1) 1 own) [ 10; 11 ];
  let returned = ref [] in
  let loot = ref [] in
  let thief () =
    match l_transfer h 0 0 victim ~into_id:1 ~into:own None with
    | None -> ()
    | Some (x, _) -> returned := [ x ]
  in
  let adder () = l_add h 1 0 victim 5 in
  let rival () = loot := l_steal h 2 1 own None in
  {
    Sched.threads = [ thief; adder; rival ];
    check_step = all_of [ bound_ok name victim; bound_ok name own ];
    check_final =
      (fun () ->
        quiescent name victim;
        quiescent name own;
        if !returned = [] then failf name "the transfer found the victim empty";
        Linz.check h;
        same_elements name
          (!returned @ !loot @ drain_all [ victim; own ])
          [ 1; 2; 3; 4; 5; 10; 11 ]);
  }

(* Two thieves transferring from one victim while its owner pops: their
   top CASes contend, so a loser must discard its copy — including the
   slots it already stored past its own [bottom], which [quiescent]'s
   [invariant_ok] checks are empty again — and retry on a smaller window. *)
let two_thieves_transfer () =
  let name = "2 steal_into thieves vs owner pop" in
  let h = Linz.create () in
  List.iter (fun id -> Linz.declare_seg h ~id ~capacity:None) [ 0; 1; 2 ];
  let victim = M.make ~id:0 () in
  let own = [| M.make ~id:1 (); M.make ~id:2 () |] in
  List.iter (l_add h (-1) 0 victim) [ 1; 2; 3; 4 ];
  let popped = ref [] in
  let returned = Array.make 2 [] in
  let owner () =
    match l_remove h 0 0 victim with Some x -> popped := [ x ] | None -> ()
  in
  let thief i () =
    match l_transfer h (i + 1) 0 victim ~into_id:(i + 1) ~into:own.(i) None with
    | None -> ()
    | Some (x, _) -> returned.(i) <- [ x ]
  in
  {
    Sched.threads = [ owner; thief 0; thief 1 ];
    check_step = all_of [ bound_ok name victim; bound_ok name own.(0); bound_ok name own.(1) ];
    check_final =
      (fun () ->
        quiescent name victim;
        quiescent name own.(0);
        quiescent name own.(1);
        Linz.check h;
        same_elements name
          (!popped @ returned.(0) @ returned.(1) @ drain_all [ victim; own.(0); own.(1) ])
          [ 1; 2; 3; 4 ]);
  }

let scenarios =
  [
    { name = "try-add-capacity"; instance = try_add_capacity };
    { name = "steal-vs-add"; instance = steal_vs_add };
    { name = "reserve-transfer"; instance = reserve_transfer_race };
    { name = "three-way"; instance = three_way };
    { name = "pop-vs-steal"; instance = pop_vs_steal };
    { name = "steal-vs-steal"; instance = steal_vs_steal };
    { name = "pop-vs-steal-one"; instance = pop_vs_steal_one };
    { name = "mpsc-push-drain"; instance = mpsc_push_vs_drain };
    { name = "push-vs-reserve"; instance = push_vs_reserve };
    { name = "hint-add-vs-park"; instance = hint_add_vs_park };
    { name = "hint-double-claim"; instance = hint_double_claim };
    { name = "three-stealers"; instance = three_stealers };
    { name = "hint-three-way"; instance = hint_three_way };
    { name = "spill-spill-drain"; instance = spill_spill_drain };
    { name = "near-steal-vs-pop"; instance = near_steal_vs_pop };
    { name = "transfer-thief-steal"; instance = transfer_thief_steal };
    { name = "two-thieves-transfer"; instance = two_thieves_transfer };
  ]

let count = List.length scenarios

let run_all ppf =
  List.map
    (fun sc ->
      match Sched.explore sc.instance with
      | n ->
        Format.fprintf ppf "interleave: %-20s %6d schedules, all invariants hold@."
          sc.name n;
        (sc.name, n)
      | exception e ->
        failwith
          (Printf.sprintf "interleave %s failed: %s" sc.name (Printexc.to_string e)))
    scenarios

(* ---- DPOR instrumentation and cross-validation ----------------------- *)

type stat = {
  s_name : string;
  dpor : int;
  dpor_pruned : int;
  exhaustive : int option;
}

let dpor_stats ?(exhaustive_cap = 1_000_000) () =
  List.map
    (fun sc ->
      let d = Sched.explore_stats ~mode:Dpor sc.instance in
      let exhaustive =
        match
          Sched.explore ~mode:Exhaustive ~max_schedules:exhaustive_cap
            sc.instance
        with
        | n -> Some n
        | exception Sched.Exploded _ -> None
      in
      { s_name = sc.name; dpor = d.schedules; dpor_pruned = d.pruned; exhaustive })
    scenarios

(* A deliberately broken two-fiber lost update on a shim atomic: the
   reduction must reach a failing schedule exactly as the full DFS does.
   (Read-then-write on one object conflicts with itself, so DPOR may not
   collapse the racing orders.) *)
let lost_update_instance () =
  let module A = Sched.Prim.Atomic in
  let c = A.make 0 in
  let bump () =
    let v = A.get c in
    A.set c (v + 1)
  in
  {
    Sched.threads = [ bump; bump ];
    check_step = (fun () -> ());
    check_final =
      (fun () -> if A.get c <> 2 then failwith "lost update");
  }

let cross_validate ppf =
  List.iter
    (fun n ->
      let sc = List.find (fun s -> s.name = n) scenarios in
      let ex = Sched.explore ~mode:Exhaustive sc.instance in
      let dp = Sched.explore ~mode:Dpor sc.instance in
      if dp >= ex then
        failwith
          (Printf.sprintf
             "cross-validate %s: DPOR explored %d schedules, not fewer than \
              the exhaustive %d"
             n dp ex);
      Format.fprintf ppf
        "cross-validate: %-16s verdicts agree (exhaustive %d, dpor %d)@." n ex
        dp)
    [ "reserve-transfer"; "pop-vs-steal-one"; "steal-vs-steal" ];
  let fails mode =
    match Sched.explore ~mode lost_update_instance with
    | _ -> false
    | exception Failure _ -> true
  in
  if not (fails Sched.Exhaustive) then
    failwith "cross-validate: exhaustive DFS missed the seeded lost update";
  if not (fails Sched.Dpor) then
    failwith "cross-validate: DPOR missed the seeded lost update";
  Format.fprintf ppf "cross-validate: seeded lost update caught by both modes@."
