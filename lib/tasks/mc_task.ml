(* Work-stealing task scheduler on Mc_pool (see mc_task.mli for the
   design). Tasks are [unit -> unit] closures; the pool carries them
   between domains, and its quiescence detection — remove returning None
   only when every registered slot is searching an empty pool — doubles as
   the shutdown signal: the reserved submission slot stays registered
   while the scheduler is open, so workers can never conclude emptiness
   mid-run, and deregistering it at shutdown is what lets the drain
   finish. *)

type task = unit -> unit

(* The global-lock stack baseline (the paper's "stack with a global lock
   for the work list"), with the same quiescence story as the pool:
   [registered] counts workers plus the open submission slot, [searching]
   counts workers currently stuck on an empty stack, and remove concludes
   None only when the two meet under the lock. *)
type stack_impl = {
  lock : Mutex.t;
  mutable items : task list;
  mutable stk_registered : int;
  mutable stk_searching : int;
}

let with_lock m f =
  Mutex.lock m;
  match f () with
  | v ->
    Mutex.unlock m;
    v
  | exception e ->
    Mutex.unlock m;
    raise e

type backend =
  | Pool of task Cpool_mc.Mc_pool.t
  | Stack of stack_impl

(* A worker's identity on its backend: the pool hands out real handles,
   the stack only needs the registration count. *)
type wslot = Pool_slot of Cpool_mc.Mc_pool.handle | Stack_slot

type t = {
  backend : backend;
  submitter : wslot;
  submit_lock : Mutex.t;  (* guards [submitter_open] and the submitter slot *)
  mutable submitter_open : bool;
  max_workers : int;
  live : int Atomic.t;
  forked : int Atomic.t;
  started : int Atomic.t;
  processed : int Atomic.t;
  shrink_tokens : int Atomic.t;
  domains_lock : Mutex.t;  (* guards [domains] and [shut] *)
  mutable domains : unit Domain.t list;
  mutable shut : bool;
  label : string;
}

(* [ctx_lifo] is the worker's one-task LIFO slot: a fork parks its task
   here and displaces the previous occupant into the pool. The worker
   runs the newest task first (depth-first down the fork tree, so the
   resident queue stays the depth of the tree, not its breadth — the
   pool's segments are FIFO rings) while stealers still take the oldest,
   largest subtrees from the pool: the Chase-Lev execution order,
   recovered one layer up. The slot is drained before the worker ever
   blocks in [remove], so it is invisible to quiescence detection only
   while its owner is demonstrably active. *)
type ctx = { ctx_sched : t; ctx_wslot : wslot; mutable ctx_lifo : task option }

(* Which scheduler's worker (if any) the current domain is: lets [fork]
   use the worker's own segment and [await] help-run ready tasks. *)
let ctx_key : ctx option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* --- backend primitives ------------------------------------------------ *)

let stack_add s x = with_lock s.lock (fun () -> s.items <- x :: s.items)

let stack_try_remove s =
  with_lock s.lock (fun () ->
      match s.items with
      | [] -> None
      | x :: tl ->
        s.items <- tl;
        Some x)

(* Blocking remove with quiescence detection, mirroring Mc_pool.remove:
   spin politely while the stack is empty but someone registered is still
   active; None once every registered slot is searching over emptiness. *)
let stack_remove s =
  let searching = ref false in
  let enter () =
    if not !searching then begin
      s.stk_searching <- s.stk_searching + 1;
      searching := true
    end
  in
  let leave () =
    if !searching then begin
      s.stk_searching <- s.stk_searching - 1;
      searching := false
    end
  in
  let rec attempt () =
    let verdict =
      with_lock s.lock (fun () ->
          match s.items with
          | x :: tl ->
            s.items <- tl;
            leave ();
            `Got x
          | [] ->
            enter ();
            if s.stk_searching >= s.stk_registered then begin
              leave ();
              `Quiesced
            end
            else `Spin)
    in
    match verdict with
    | `Got x -> Some x
    | `Quiesced -> None
    | `Spin ->
      Domain.cpu_relax ();
      attempt ()
  in
  attempt ()

let stack_register s =
  with_lock s.lock (fun () -> s.stk_registered <- s.stk_registered + 1);
  Stack_slot

let stack_deregister s =
  with_lock s.lock (fun () -> s.stk_registered <- s.stk_registered - 1)

let b_add t slot x =
  match (t.backend, slot) with
  | Pool pool, Pool_slot h -> Cpool_mc.Mc_pool.add pool h x
  | Stack s, Stack_slot -> stack_add s x
  | _ -> assert false

let b_remove t slot =
  match (t.backend, slot) with
  | Pool pool, Pool_slot h -> Cpool_mc.Mc_pool.remove pool h
  | Stack s, Stack_slot -> stack_remove s
  | _ -> assert false

(* Work-first helping order: the owner's segment first — in a fork/join
   tree the children a worker just forked sit right there, behind the
   segment's lock-free owner path — and only then a full (stealing)
   search pass. The stack has one list, so local and global coincide. *)
let b_try_remove t slot =
  match (t.backend, slot) with
  | Pool pool, Pool_slot h -> (
    match Cpool_mc.Mc_pool.try_remove_local pool h with
    | Some _ as got -> got
    | None -> Cpool_mc.Mc_pool.try_remove pool h)
  | Stack s, Stack_slot -> stack_try_remove s
  | _ -> assert false

let b_register t =
  match t.backend with
  | Pool pool -> Pool_slot (Cpool_mc.Mc_pool.register pool)
  | Stack s -> stack_register s

let b_deregister t slot =
  match (t.backend, slot) with
  | Pool pool, Pool_slot h -> Cpool_mc.Mc_pool.deregister pool h
  | Stack s, Stack_slot -> stack_deregister s
  | _ -> assert false

(* --- tasks and workers ------------------------------------------------- *)

let run_task t task =
  Atomic.incr t.started;
  task ();
  Atomic.incr t.processed

(* CAS-claim one pending retirement request, the sanctioned RMW idiom. *)
let rec claim_shrink_token t =
  let n = Atomic.get t.shrink_tokens in
  n > 0 && (Atomic.compare_and_set t.shrink_tokens n (n - 1) || claim_shrink_token t)

(* Take the worker's LIFO slot, if occupied. *)
let take_lifo ctx =
  match ctx.ctx_lifo with
  | Some _ as got ->
    ctx.ctx_lifo <- None;
    got
  | None -> None

let worker_loop t slot =
  let ctx = { ctx_sched = t; ctx_wslot = slot; ctx_lifo = None } in
  Domain.DLS.set ctx_key (Some ctx);
  let rec go () =
    if claim_shrink_token t then
      (* Retiring: anything parked in the LIFO slot must go back to the
         pool or it would leave with us. *)
      match take_lifo ctx with None -> () | Some task -> b_add t slot task
    else
      match take_lifo ctx with
      | Some task ->
        run_task t task;
        go ()
      | None -> (
        (* The slot is empty here, so blocking in [remove] is safe: this
           worker hides no work from quiescence detection. *)
        match b_remove t slot with
        | Some task ->
          run_task t task;
          go ()
        | None -> () (* quiescence: submission closed, everything drained *))
  in
  go ();
  b_deregister t slot;
  Atomic.decr t.live

let enqueue t task =
  match Domain.DLS.get ctx_key with
  | Some ctx when ctx.ctx_sched == t ->
    Atomic.incr t.forked;
    (* Newest task into the LIFO slot; the displaced one becomes
       stealable pool work. *)
    (match ctx.ctx_lifo with
    | None -> ()
    | Some prev -> b_add t ctx.ctx_wslot prev);
    ctx.ctx_lifo <- Some task
  | _ ->
    with_lock t.submit_lock (fun () ->
        if not t.submitter_open then
          invalid_arg "Mc_task.fork: scheduler is shut down";
        Atomic.incr t.forked;
        b_add t t.submitter task)

(* --- futures ----------------------------------------------------------- *)

type 'a state = Pending | Done of 'a | Failed of exn * Printexc.raw_backtrace

type 'a future = { fsched : t; cell : 'a state Atomic.t }

let fork t f =
  let cell = Atomic.make Pending in
  enqueue t (fun () ->
      (* Publish exactly once; the single store is the synchronization
         point awaiters read through. *)
      match f () with
      | v -> Atomic.set cell (Done v)
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Atomic.set cell (Failed (e, bt)));
  { fsched = t; cell }

(* Waiting must not starve whoever is computing the future: spin briefly
   for cheap futures, then yield the core in short sleep slices. On an
   oversubscribed machine (more domains than cores) a busy-wait here
   competes with the worker actually producing the value and inverts the
   speedup. *)
let backoff spins =
  if spins < 512 then Domain.cpu_relax () else Unix.sleepf 0.0002

let await fut =
  let t = fut.fsched in
  let rec wait spins =
    match Atomic.get fut.cell with
    | Done v -> v
    | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
    | Pending ->
      (match Domain.DLS.get ctx_key with
      | Some ctx when ctx.ctx_sched == t -> (
        (* Help-first: a worker blocked on a future runs other ready
           tasks — its own LIFO slot first (the deepest fork), then the
           pool — so nested fork/join can never deadlock a bounded
           fleet. Only when there is nothing to help with does it back
           off like an external awaiter. *)
        let next =
          match take_lifo ctx with
          | Some _ as got -> got
          | None ->
            (* Sweep the pool only when something is actually queued
               (forked but not yet started). Without the gate an awaiter
               with nothing to help re-scans every segment per poll —
               pure overhead that competes with the worker computing the
               value it is waiting for. *)
            if Atomic.get t.forked - Atomic.get t.started > 0 then
              b_try_remove t ctx.ctx_wslot
            else None
        in
        match next with
        | Some task ->
          run_task t task;
          wait 0
        | None ->
          backoff spins;
          wait (spins + 1))
      | _ ->
        backoff spins;
        wait (spins + 1))
  in
  wait 0

let join futs = List.map await futs

(* --- construction, elasticity, shutdown -------------------------------- *)

let spawn_worker t slot =
  Atomic.incr t.live;
  let d = Domain.spawn (fun () -> worker_loop t slot) in
  t.domains <- d :: t.domains

let start t workers =
  with_lock t.domains_lock (fun () ->
      for _ = 1 to workers do
        spawn_worker t (b_register t)
      done);
  t

let of_config ?workers cfg =
  let segments = cfg.Cpool_mc.Mc_pool.Config.segments in
  if segments < 2 then
    invalid_arg
      "Mc_task.of_config: need at least 2 segments (workers + the \
       submission slot)";
  let workers = match workers with Some w -> w | None -> segments - 1 in
  if workers < 1 || workers > segments - 1 then
    invalid_arg "Mc_task.of_config: workers must be in 1 .. segments - 1";
  let pool : task Cpool_mc.Mc_pool.t = Cpool_mc.Mc_pool.of_config cfg in
  (* The last slot is the submission slot; registering it here is what
     keeps the pool non-quiescent (workers blocked in remove keep
     waiting) until shutdown deregisters it. *)
  let submitter = Pool_slot (Cpool_mc.Mc_pool.register_at pool (segments - 1)) in
  start
    {
      backend = Pool pool;
      submitter;
      submit_lock = Mutex.create ();
      submitter_open = true;
      max_workers = segments - 1;
      live = Atomic.make 0;
      forked = Atomic.make 0;
      started = Atomic.make 0;
      processed = Atomic.make 0;
      shrink_tokens = Atomic.make 0;
      domains_lock = Mutex.create ();
      domains = [];
      shut = false;
      label = Cpool_intf.to_string cfg.Cpool_mc.Mc_pool.Config.kind;
    }
    workers

let lock_stack ~workers =
  if workers < 1 then invalid_arg "Mc_task.lock_stack: workers must be positive";
  let s =
    { lock = Mutex.create (); items = []; stk_registered = 0; stk_searching = 0 }
  in
  let submitter = stack_register s in
  start
    {
      backend = Stack s;
      submitter;
      submit_lock = Mutex.create ();
      submitter_open = true;
      max_workers = max_int;
      live = Atomic.make 0;
      forked = Atomic.make 0;
      started = Atomic.make 0;
      processed = Atomic.make 0;
      shrink_tokens = Atomic.make 0;
      domains_lock = Mutex.create ();
      domains = [];
      shut = false;
      label = "stack";
    }
    workers

let grow t n =
  if n < 0 then invalid_arg "Mc_task.grow: negative count";
  with_lock t.domains_lock (fun () ->
      if t.shut then invalid_arg "Mc_task.grow: scheduler is shut down";
      let added = ref 0 in
      (try
         for _ = 1 to n do
           if Atomic.get t.live >= t.max_workers then raise Exit;
           (* Register from here and hand the slot to the new domain —
              Mc_pool.register raises Failure when every slot is claimed
              (a retiring worker may not have released its slot yet). *)
           let slot = b_register t in
           spawn_worker t slot;
           incr added
         done
       with
      | Exit -> ()
      | Failure _ -> ());
      !added)

let shrink t n =
  if n <= 0 then 0
  else begin
    let target = Int.min n (Int.max 0 (Atomic.get t.live - 1)) in
    if target > 0 then begin
      ignore (Atomic.fetch_and_add t.shrink_tokens target);
      (* Nudge tasks wake workers blocked in remove so they reach the
         token check; survivors run them as no-ops. *)
      for _ = 1 to target do
        enqueue t ignore
      done
    end;
    target
  end

let shutdown t =
  let already =
    with_lock t.domains_lock (fun () ->
        let a = t.shut in
        t.shut <- true;
        a)
  in
  if not already then begin
    (* Closing and deregistering under the one lock so a concurrent fork
       can never use the submitter slot after it is gone. *)
    with_lock t.submit_lock (fun () ->
        if t.submitter_open then begin
          t.submitter_open <- false;
          b_deregister t t.submitter
        end);
    (* No further grow can run (shut is set), so the domain list is
       final; join outside any lock. *)
    List.iter Domain.join t.domains
  end

let live_workers t = Atomic.get t.live
let max_workers t = t.max_workers
let label t = t.label
let forked t = Atomic.get t.forked
let processed t = Atomic.get t.processed

let steals t =
  match t.backend with Pool pool -> Cpool_mc.Mc_pool.steals pool | Stack _ -> 0
