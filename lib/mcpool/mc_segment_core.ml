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
  val stats : 'a t -> Mc_stats.t
  val invariant_ok : 'a t -> bool
  val debug_counts : 'a t -> int * int
end

module Make (P : Mc_prim.S) = struct
  module Atomic = P.Atomic
  module Plain = P.Plain
  module Slots = P.Slots

  (* Ring slots hold [Obj.repr]ed elements: one physical representation
     serves every ['a], so a vacated slot can be cleared with an immediate
     (no dummy ['a] needed) and float elements are safe: the ring is made
     from the immediate [vacant], so it is never a flat float array, and a
     float element is stored as its box (an ['a array] of floats would be
     flat and crash on an immediate filler). A [vacant] slot is never read
     back as ['a]; the protocol below guarantees it. *)
  let vacant : Obj.t = Obj.repr 0

  let initial_ring = 8

  (* The segment is a lock-free SPMC FIFO ring plus a lock-free MPSC inbox.
     No operation takes a lock.

     [ring] is a power-of-two array indexed modulo its length by two
     monotonically non-decreasing cursors, [top <= bottom]:

       [top, bottom)   live elements, oldest at [top].

     Roles:
     - The OWNER (the one domain the pool assigns this segment to) is the
       only writer of [bottom] and of ring slots: it stores a batch with
       plain writes and publishes it with one atomic [fetch_and_add] on
       [bottom]. [bottom] never decreases — the owner does not pop at the
       back.
     - ALL consumers — the owner's pop and every stealer — take from the
       FRONT by the same copy-then-claim protocol: read [t = top] and
       [b = bottom], copy slots [t, t + w), then CAS [top : t -> t + w].
       The copy goes into a private buffer, or — for a thief moving the
       window into its own segment — past the bottom of the thief's own
       ring, where only that thief (its owner) writes. The CAS is the
       commit point; a failed CAS discards the copy (a thief writes its
       unpublished slots back to [vacant]) and retries. Consequently owner
       pops are FIFO (oldest first) — pools are unordered, so locality of
       the old LIFO pop is traded for a protocol with one cursor CAS and
       no claim/revalidate window.
     - FOREIGN ADDS (the pool's spill traffic) CAS-push onto [inbox], a
       Treiber stack of list cells. The owner drains it with a single
       [exchange] when its ring runs dry, reversing the batch so spill
       traffic stays FIFO end-to-end (push order = drain order = ring pop
       order). Stealers that find the ring dry may CAS-pop single cells —
       cells are fresh blocks, never re-pushed, so the physical-equality
       CAS cannot ABA.

     Why a torn copy is harmless: a consumer's copy races only the owner
     overwriting slots for indices [>= bottom]. The owner's room check
     bounds its writes to [x < top_read + length ring] for some [top_read]
     it observed; for such a write to alias a slot in a pending window
     [t, t + w) (all indices [< bottom <= x]), the index gap must be at
     least [length ring], forcing [top_read > t] — so [top] already moved
     past [t] and that window's CAS must fail. The garbage copy is held
     only as [Obj.t] and discarded, never converted.

     Ring growth is lock-free too: the owner builds a fresh array, copies
     the live range, and publishes it with one atomic exchange of [ring].
     Consumers snapshot [ring] once per attempt, AFTER reading the cursors:
     [bottom] is monotone, so every index in the snapshot's [t, b) window
     is present in whichever array version the consumer sees (the swap
     copies [<= top .. bottom) and later owner pushes store into the new
     array before publishing [bottom]).

     Space discipline: consumed slots keep their (dead) element reachable
     until cleared. Stealers never write a victim's slots, so the owner
     lazily vacates [scrub, top) during its own operations — skipping
     slots already recycled for a newer index — mirroring
     [Vec.release_slot]. At quiescence every slot outside [scrub, bottom)
     holds [vacant]; [invariant_ok] checks it.

     [count] is the logical size: ring elements + inbox elements +
     outstanding reservations. Increments happen before the element is
     visible and decrements after it is taken, so [count >= stored] always;
     on a bounded segment every increment goes through a CAS that refuses
     to exceed the bound, so capacity holds at every instant. *)
  (* The ring is a [Slots] array. On hardware that is one flat [Obj.t]
     array: a ring is one block, and an owner push allocates nothing. Under
     the checker every index is a tracked plain cell: slot reads and writes
     are exactly the shared plain accesses whose ordering the protocol must
     prove (owner store -> [bottom] publish -> consumer read), so routing
     them through [Slots] lets the checker's happens-before race detector
     certify that proof on the shipped code. The one deliberate exception —
     the consumer's pre-CAS window copy, whose value is garbage unless the
     [top] CAS validates it — reads through [Slots.racy_get]. *)
  type 'a t = {
    seg_id : int;
    bound : int option;
    ring : Obj.t Slots.t Atomic.t; (* swapped only by the owner, on growth *)
    top : int Atomic.t;
    bottom : int Atomic.t;
    scrub : int Plain.t; (* owner-only: slots [scrub, top) may need clearing *)
    inbox : 'a list Atomic.t; (* MPSC Treiber stack of spilled elements *)
    count : int Atomic.t;
    seg_stats : Mc_stats.t; (* path counters; see Mc_stats writer discipline *)
  }

  let fresh_ring n = Slots.make n vacant

  let make ?capacity ~id () =
    (match capacity with
    | Some c when c <= 0 -> invalid_arg "Mc_segment.make: capacity must be positive"
    | Some _ | None -> ());
    {
      seg_id = id;
      bound = capacity;
      ring = Atomic.make_padded (fresh_ring initial_ring);
      top = Atomic.make_padded 0;
      bottom = Atomic.make_padded 0;
      scrub = Plain.make 0;
      inbox = Atomic.make_padded [];
      count = Atomic.make_padded 0;
      seg_stats = Mc_stats.create ();
    }

  let id s = s.seg_id

  let capacity s = s.bound

  let size s = Atomic.get s.count

  let spare s =
    match s.bound with None -> max_int | Some c -> Int.max 0 (c - Atomic.get s.count)

  let stats s = s.seg_stats

  let inbox_length s = List.length (Atomic.get s.inbox)

  let shift_count s d = ignore (Atomic.fetch_and_add s.count d)

  (* Claim up to [k] units of capacity with a CAS loop, returning the amount
     claimed. CAS (rather than check-then-add) is what keeps the bound
     exact: no interleaving of claimants — including the lock-free owner —
     can push [count] past [c], even transiently. *)
  let rec claim_up_to s ~bound:c k =
    let cur = Atomic.get s.count in
    let granted = Int.min k (Int.max 0 (c - cur)) in
    if granted = 0 then 0
    else if Atomic.compare_and_set s.count cur (cur + granted) then granted
    else claim_up_to s ~bound:c k

  let slot ring i = i land (Slots.length ring - 1)

  (* Owner-only, lazy space-leak control: clear ring slots whose elements
     were claimed, so the GC can reclaim them (the Vec.release_slot
     discipline). A slot whose index was already recycled by a newer push
     (index < bottom - length) holds that newer element and must be left
     alone; a stealer's in-flight copy of a slot cleared here belongs to a
     window [top] has already passed, i.e. to a doomed CAS. *)
  let scrub_consumed s =
    let t = Atomic.get s.top in
    if Plain.get s.scrub < t then begin
      let ring = Atomic.get s.ring in
      let b = Atomic.get s.bottom in
      let from = Int.max (Plain.get s.scrub) (b - Slots.length ring) in
      for i = from to t - 1 do
        Slots.set ring (slot ring i) vacant
      done;
      Plain.set s.scrub t
    end

  (* Owner-only lock-free ring replacement: build the fresh array, copy the
     live range, publish with one atomic swap. A consumer still holding the
     old array is unharmed — the owner never writes the old array again, and
     the [top] CAS decides whether its copy was current. A stale (small)
     read of [top] here only copies extra already-dead slots. *)
  let grow s ~extra =
    let old = Atomic.get s.ring in
    let t = Atomic.get s.top and b = Atomic.get s.bottom in
    let cap = ref (Int.max initial_ring (2 * Slots.length old)) in
    while b - t + extra > !cap do
      cap := 2 * !cap
    done;
    let fresh = fresh_ring !cap in
    for i = t to b - 1 do
      Slots.set fresh (i land (!cap - 1)) (Slots.get old (slot old i))
    done;
    Plain.set s.scrub t;
    ignore (Atomic.exchange s.ring fresh);
    fresh

  (* The owner's store window for [n] elements from index [b]: the current
     ring when it has room, else a grown one. Room is judged against a
     fresh [top] read; a stale (small) value only makes the check
     conservative (grows early, never overwrites live). *)
  let room_for s ~b n =
    let ring = Atomic.get s.ring in
    if b + n - Atomic.get s.top <= Slots.length ring then ring
    else grow s ~extra:n

  let rec store_all ring i = function
    | [] -> ()
    | x :: tl ->
      Slots.set ring (slot ring i) (Obj.repr x);
      store_all ring (i + 1) tl

  (* Owner batch store of [n >= 1] elements, published with ONE atomic
     add on [bottom] — [bottom]'s single writer is the owner, so the add
     is a store of [b + n], and the atomic write is what makes the plain
     slot stores visible to any consumer that reads the new [bottom]. *)
  let push_many s xs n =
    scrub_consumed s;
    let b = Atomic.get s.bottom in
    let ring = room_for s ~b n in
    store_all ring b xs;
    ignore (Atomic.fetch_and_add s.bottom n)

  (* [push_many] for one element, stored directly: no list cell, no
     closure — the owner's add allocates nothing unless the ring grows. *)
  let push_one s x =
    scrub_consumed s;
    let b = Atomic.get s.bottom in
    let ring = room_for s ~b 1 in
    Slots.set ring (slot ring b) (Obj.repr x);
    ignore (Atomic.fetch_and_add s.bottom 1);
    Mc_stats.note_fast_push s.seg_stats

  (* Count first, store second: [count >= stored] must hold at every
     instant or a concurrent steal's decrement could drive it negative. *)
  let add s x =
    shift_count s 1;
    push_one s x

  let try_add s x =
    match s.bound with
    | None ->
      add s x;
      true
    | Some c ->
      if claim_up_to s ~bound:c 1 = 0 then false
      else begin
        push_one s x;
        true
      end

  (* Foreign add (the pool's spill path): only the owner may touch the
     ring, so other domains CAS-push onto the MPSC inbox. Capacity is
     claimed before the element is stored, like every other increment. *)
  let rec mpsc_push s x =
    let seen = Atomic.get s.inbox in
    if Atomic.compare_and_set s.inbox seen (x :: seen) then ()
    else begin
      Mc_stats.note_mpsc_retry s.seg_stats;
      mpsc_push s x
    end

  let spill_add s x =
    let claimed =
      match s.bound with
      | None ->
        shift_count s 1;
        true
      | Some c -> claim_up_to s ~bound:c 1 = 1
    in
    claimed
    && begin
      mpsc_push s x;
      Mc_stats.note_inbox_add s.seg_stats;
      true
    end

  (* Where a take's window goes. [Buffer] ([steal_half]) copies it into a
     private buffer and returns it as loot. [Ring] ([steal_into]) stores
     its tail into the thief's own ring at indices [>= bottom], exactly
     where [push_many] would, and returns the oldest element. The target
     fixes the result type, so both share one loop without a closure. *)
  type (_, _) target =
    | Buffer : ('a, 'a Cpool.Steal.loot) target
    | Ring : ('a, 'a took) target

  (* Take up to half the ring (at most [want]) from its front with one CAS
     on [top]. Copy-then-claim: the oldest slot is read into a local and
     the tail [t + 1, t + w) into the target FIRST; the CAS is the commit
     point; only after it succeeds is anything converted or published. A
     failed CAS may have copied garbage (see the overwrite note on the
     type): a buffer is simply dropped, and the slots a [Ring] take filled
     past [into]'s [bottom] are written back to [vacant] — they are not
     published, but left alone they would keep elements alive that another
     consumer took. The ring snapshot comes AFTER the cursor reads so a
     concurrent swap cannot hide indices of [t, b) from it ([bottom] is
     monotone). [into] is the thief's own segment (the caller owns it) and
     only a [Ring] take touches it; it may be [s] itself. *)
  let rec claim_window : type a r. a t -> (a, r) target -> into:a t -> want:int -> r =
   fun s target ~into ~want ->
    let t = Atomic.get s.top in
    let b = Atomic.get s.bottom in
    let n = b - t in
    if n <= 0 then (match target with Buffer -> Cpool.Steal.Nothing | Ring -> Missed)
    else begin
      let w = Int.min ((n + 1) / 2) want in
      let tail = w - 1 in
      let ring = Atomic.get s.ring in
      (* The tail's destination: [into]'s ring from its [bottom], grown if
         it lacks room, or a fresh buffer. A one-element take has no tail
         and touches neither ([dst] is then never written). *)
      let at =
        match target with
        | Ring when tail > 0 ->
          scrub_consumed into;
          Atomic.get into.bottom
        | Ring | Buffer -> 0
      in
      let dst =
        if tail = 0 then ring
        else
          match target with
          | Buffer -> Slots.make tail vacant
          | Ring -> room_for into ~b:at tail
      in
      (* Sanctioned racy reads: a concurrent owner overwrite (recycled
         index) or scrub makes these copies garbage, but then [top] has
         moved past [t] and the CAS below fails. *)
      let x = Slots.racy_get ring (slot ring t) in
      for j = 0 to tail - 1 do
        let v = Slots.racy_get ring (slot ring (t + 1 + j)) in
        match target with
        | Buffer -> Slots.set dst j v
        | Ring -> Slots.set dst (slot dst (at + j)) v
      done;
      if Atomic.compare_and_set s.top t (t + w) then begin
        shift_count s (-w);
        match target with
        | Ring -> Took ((Obj.obj x : a), w)
        | Buffer ->
          if tail = 0 then Cpool.Steal.Single (Obj.obj x : a)
          else
            Cpool.Steal.Batch
              ((Obj.obj x : a), List.init tail (fun j -> (Obj.obj (Slots.get dst j) : a)))
      end
      else begin
        Mc_stats.note_top_cas_retry s.seg_stats;
        (match target with
        | Buffer -> ()
        | Ring ->
          for j = 0 to tail - 1 do
            Slots.set dst (slot dst (at + j)) vacant
          done);
        claim_window s target ~into ~want
      end
    end

  (* Single-element take, the owner's pop in a task-scheduler loop where
     it runs once per task: the same copy-then-claim protocol as
     [claim_window] with [w = 1], which has no tail to copy, minus the
     target and the result block — an allocation-free hot path apart
     from the [Some]. The memory-ordering argument is
     unchanged: the slot is read through [racy_get] BEFORE the [top] CAS,
     and a raced overwrite means [top] already moved so the CAS fails and
     the garbage copy is discarded unconverted. *)
  let rec claim_one : 'a. 'a t -> 'a option =
    fun s ->
     let t = Atomic.get s.top in
     let b = Atomic.get s.bottom in
     if b - t <= 0 then None
     else begin
       let ring = Atomic.get s.ring in
       let x = Slots.racy_get ring (slot ring t) in
       if Atomic.compare_and_set s.top t (t + 1) then begin
         shift_count s (-1);
         Some (Obj.obj x : 'a)
       end
       else begin
         Mc_stats.note_top_cas_retry s.seg_stats;
         claim_one s
       end
     end

  (* Owner drain: swap the whole MPSC stack out in one exchange, reverse it
     back to arrival order, and batch it into the FIFO ring — spill traffic
     is consumed oldest-first end-to-end. [count] is untouched: the
     elements only move between the two stores it already covers. *)
  let drain_inbox s =
    match Atomic.exchange s.inbox [] with
    | [] -> 0
    | xs ->
      let xs = List.rev xs in
      let n = List.length xs in
      push_many s xs n;
      Mc_stats.note_inbox_drain s.seg_stats ~elements:n;
      n

  let rec pop s =
    match claim_one s with
    | Some _ as r -> r
    | None -> if drain_inbox s = 0 then None else pop s

  let try_remove s =
    if Atomic.get s.count = 0 then begin
      (* Idle moment: finish clearing consumed slots (a no-op when already
         clean), so a drained segment pins no dead elements. *)
      scrub_consumed s;
      None
    end
    else
      match pop s with
      | Some _ as r ->
        Mc_stats.note_fast_pop s.seg_stats;
        r
      | None ->
        scrub_consumed s;
        None

  (* Steal fallback when the ring is dry: lift single cells off the MPSC
     stack. Cells are fresh blocks and never re-pushed, so the
     physical-equality CAS cannot ABA; losing a race to the owner's
     exchange-drain just ends the walk early. *)
  let rec mpsc_pop s =
    match Atomic.get s.inbox with
    | [] -> None
    | x :: tl as seen ->
      if Atomic.compare_and_set s.inbox seen tl then Some x
      else begin
        Mc_stats.note_mpsc_retry s.seg_stats;
        mpsc_pop s
      end

  let steal_inbox s max_take =
    let m = List.length (Atomic.get s.inbox) in
    if m = 0 then []
    else begin
      let k = Int.min ((m + 1) / 2) max_take in
      let rec take acc k =
        if k = 0 then List.rev acc
        else
          match mpsc_pop s with
          | None -> List.rev acc
          | Some x ->
            shift_count s (-1);
            take (x :: acc) (k - 1)
      in
      take [] k
    end

  let steal_half ?(max_take = max_int) s =
    if max_take < 1 then invalid_arg "Mc_segment.steal_half: max_take must be >= 1";
    match claim_window s Buffer ~into:s ~want:max_take with
    | Cpool.Steal.Nothing -> (
      match steal_inbox s max_take with
      | [] -> Cpool.Steal.Nothing
      | [ x ] -> Cpool.Steal.Single x
      | x :: rest -> Cpool.Steal.Batch (x, rest))
    | (Cpool.Steal.Single _ | Cpool.Steal.Batch _) as loot -> loot

  let reserve s k =
    if k < 0 then invalid_arg "Mc_segment.reserve: negative reservation";
    if k = 0 then 0
    else
      match s.bound with
      | None ->
        shift_count s k;
        k
      | Some c -> claim_up_to s ~bound:c k

  (* The thief-side transfer. The ring branch has already stored the
     banked tail past [into]'s [bottom]; publishing it is [push_many]'s
     last step, with the count raised first unless a reservation already
     covers it. The inbox branch lifts cells as [steal_half] does and
     publishes all but the oldest with one [push_many]. Whatever part of
     the reservation went unused is released last, after the store, so
     [count >= stored] holds throughout. *)
  let steal_into ?reserved s ~into =
    let want =
      match reserved with
      | None -> max_int
      | Some r when r < 0 -> invalid_arg "Mc_segment.steal_into: negative reservation"
      | Some r -> r + 1
    in
    let took =
      match claim_window s Ring ~into ~want with
      | Took (_, w) as took ->
        if w > 1 then begin
          (match reserved with None -> shift_count into (w - 1) | Some _ -> ());
          ignore (Atomic.fetch_and_add into.bottom (w - 1));
          Mc_stats.note_fast_push into.seg_stats
        end;
        took
      | Missed -> (
        match steal_inbox s want with
        | [] -> Missed
        | [ x ] -> Took (x, 1)
        | x :: rest ->
          let k = List.length rest in
          (match reserved with None -> shift_count into k | Some _ -> ());
          push_many into rest k;
          Mc_stats.note_fast_push into.seg_stats;
          Took (x, k + 1))
    in
    (match reserved with
    | None -> ()
    | Some r ->
      let used = match took with Missed -> 0 | Took (_, w) -> w - 1 in
      if used < r then shift_count into (used - r));
    took

  let stored_now s =
    Atomic.get s.bottom - Atomic.get s.top + List.length (Atomic.get s.inbox)

  (* Every ring slot that no index in [scrub, bottom) maps to holds
     [vacant]. Those slots are the ones of indices [bottom] up to
     [length ring] past the lowest index that still maps to its own slot,
     [max scrub (bottom - length ring)]. *)
  let vacant_outside s ~b =
    let ring = Atomic.get s.ring in
    let from = Int.max (Plain.get s.scrub) (b - Slots.length ring) in
    let rec go i =
      i >= from + Slots.length ring || (Slots.get ring (slot ring i) == vacant && go (i + 1))
    in
    go b

  (* Quiescent-only: with no thread mid-operation the cursors and the count
     are read directly. [top <= bottom] is the cursor invariant ([bottom] is
     monotone and a claim never exceeds [bottom - top]); [scrub <= top]
     because the scrub cursor only chases [top]; the space discipline holds
     because every slot write past [bottom] is either published or written
     back. *)
  let invariant_ok s =
    let t = Atomic.get s.top and b = Atomic.get s.bottom in
    let c = Atomic.get s.count in
    t <= b && Plain.get s.scrub <= t
    && c = stored_now s
    && (match s.bound with None -> true | Some bd -> c <= bd)
    && vacant_outside s ~b

  let debug_counts s = (Atomic.get s.count, stored_now s)
end
