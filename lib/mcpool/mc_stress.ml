type config = {
  domains : int;
  kind : Mc_pool.kind;
  capacity : int option;
  workload : Cpool_intf.Workload.t;
  churn : bool;
  seed : int;
  trace : bool;
}

let default =
  {
    domains = 4;
    kind = Mc_pool.Linear;
    capacity = None;
    workload = Cpool_intf.Workload.default;
    churn = true;
    seed = 42;
    trace = false;
  }

let kind_name = Cpool_intf.to_string

let config_name cfg =
  Printf.sprintf "%s/%s" (kind_name cfg.kind)
    (match cfg.capacity with
    | None -> "unbounded"
    | Some c -> Printf.sprintf "capacity=%d" c)

type report = {
  config : config;
  duration : float;
  ops : int;
  initial_added : int;
  adds_ok : int;
  adds_rejected : int;
  removes_ok : int;
  steals : int;
  per_worker : (string * Mc_stats.t) list;
  per_segment : (string * Mc_stats.t) list; (* ring path counters, per segment *)
  merged : Mc_stats.t; (* pool-wide, including the initial fill and churned-away handles *)
  traces : Mc_trace.t list; (* every handle's event ring; empty unless cfg.trace *)
  violations : string list;
}

let passed r = r.violations = []

type worker_tally = {
  mutable w_ops : int;
  mutable w_drains : int; (* drain-phase remove attempts, not in [w_ops] *)
  mutable w_adds : int;
  mutable w_rejects : int;
  mutable w_removes : int;
  mutable w_stats : Mc_stats.t list; (* stats of handles this worker retired *)
}

let validate cfg =
  let w = cfg.workload in
  if cfg.domains <= 0 then invalid_arg "Mc_stress.run: domains must be positive";
  if not (Cpool_intf.Workload.closed w) then
    invalid_arg "Mc_stress.run: the soak harness is closed-loop only";
  if w.arrangement <> Cpool_intf.Workload.Uniform then
    invalid_arg "Mc_stress.run: the soak harness runs a uniform arrangement";
  if w.duration_s < 0.0 then
    invalid_arg "Mc_stress.run: duration must be non-negative";
  if w.mix < 0.0 || w.mix > 1.0 then
    invalid_arg "Mc_stress.run: mix must be in [0, 1]";
  if w.initial < 0 then invalid_arg "Mc_stress.run: initial must be non-negative"

(* Prefill by registering each slot in turn, so elements spread evenly and
   the fill itself exercises register/deregister. [workload.initial] is per
   segment, like every other driver. *)
let prefill pool cfg =
  let p = Mc_pool.segments pool in
  let per_slot =
    match cfg.capacity with
    | None -> cfg.workload.Cpool_intf.Workload.initial
    | Some c -> Int.min cfg.workload.Cpool_intf.Workload.initial c
  in
  let added = ref 0 in
  for s = 0 to p - 1 do
    let h = Mc_pool.register_at pool s in
    for _ = 1 to per_slot do
      if Mc_pool.try_add pool h !added then incr added
    done;
    Mc_pool.deregister pool h
  done;
  !added

let worker pool cfg tally i barrier deadline =
  let rng = Cpool_util.Rng.create (Int64.of_int ((cfg.seed * 7919) + i)) in
  let add_threshold =
    int_of_float (cfg.workload.Cpool_intf.Workload.mix *. 1_000_000.0)
  in
  let h = ref (Mc_pool.register_at pool i) in
  (* Everyone registers before anyone operates, so quiescence accounting
     never sees a partially started fleet. *)
  Atomic.decr barrier;
  while Atomic.get barrier > 0 do
    Domain.cpu_relax ()
  done;
  let churning = cfg.churn && i land 1 = 1 in
  let running = ref true in
  while !running do
    for _ = 1 to 64 do
      tally.w_ops <- tally.w_ops + 1;
      if Cpool_util.Rng.int rng 1_000_000 < add_threshold then begin
        if Mc_pool.try_add pool !h tally.w_ops then tally.w_adds <- tally.w_adds + 1
        else tally.w_rejects <- tally.w_rejects + 1
      end
      else
        match Mc_pool.try_remove pool !h with
        | Some _ -> tally.w_removes <- tally.w_removes + 1
        | None -> ()
    done;
    if churning && tally.w_ops land 4095 < 64 then begin
      (* Retire this identity and claim a fresh slot: the lifecycle churn
         that leaked slots in the seed version. *)
      tally.w_stats <- Mc_pool.stats_of_handle !h :: tally.w_stats;
      Mc_pool.deregister pool !h;
      h := Mc_pool.register pool
    end;
    if Cpool_util.Clock.now_ns () >= deadline then running := false
  done;
  (* Drain phase: blocking removes until the pool confirms empty. *)
  let rec drain () =
    tally.w_drains <- tally.w_drains + 1;
    match Mc_pool.remove pool !h with
    | Some _ ->
      tally.w_removes <- tally.w_removes + 1;
      drain ()
    | None -> ()
  in
  drain ();
  tally.w_stats <- Mc_pool.stats_of_handle !h :: tally.w_stats;
  Mc_pool.deregister pool !h

let run cfg =
  validate cfg;
  let pool : int Mc_pool.t =
    Mc_pool.of_config
      {
        Mc_pool.Config.default with
        segments = cfg.domains;
        kind = cfg.kind;
        capacity = cfg.capacity;
        trace = cfg.trace;
      }
  in
  let initial_added = prefill pool cfg in
  let tallies =
    Array.init cfg.domains (fun _ ->
        { w_ops = 0; w_drains = 0; w_adds = 0; w_rejects = 0; w_removes = 0; w_stats = [] })
  in
  let barrier = Atomic.make cfg.domains in
  let stop_watch = Atomic.make false in
  let capacity_violations = Atomic.make 0 in
  (* A dedicated watcher polls segment sizes concurrently: on a bounded pool
     the capacity invariant must hold at every instant, not just at the end. *)
  let watcher =
    match cfg.capacity with
    | None -> None
    | Some c ->
      Some
        (Domain.spawn (fun () ->
             while not (Atomic.get stop_watch) do
               Array.iter
                 (fun size -> if size > c then Atomic.incr capacity_violations)
                 (Mc_pool.segment_sizes pool);
               Domain.cpu_relax ()
             done))
  in
  let t0_ns = Cpool_util.Clock.now_ns () in
  let deadline_ns =
    t0_ns + Cpool_util.Clock.ns_of_s cfg.workload.Cpool_intf.Workload.duration_s
  in
  let ds =
    List.init cfg.domains (fun i ->
        Domain.spawn (fun () -> worker pool cfg tallies.(i) i barrier deadline_ns))
  in
  List.iter Domain.join ds;
  let duration = Cpool_util.Clock.elapsed_s ~since_ns:t0_ns in
  Atomic.set stop_watch true;
  Option.iter Domain.join watcher;
  let per_worker =
    Array.to_list
      (Array.mapi
         (fun i tally -> (Printf.sprintf "d%d" i, Mc_stats.merge_all tally.w_stats))
         tallies)
  in
  let per_segment =
    Array.to_list
      (Array.mapi
         (fun i s -> (Printf.sprintf "s%d" i, s))
         (Mc_pool.segment_stats pool))
  in
  let merged = Mc_pool.stats pool in
  let sum f = Array.fold_left (fun acc tally -> acc + f tally) 0 tallies in
  let adds_ok = sum (fun w -> w.w_adds) in
  let removes_ok = sum (fun w -> w.w_removes) in
  let violations = ref [] in
  let check name ok detail = if not ok then violations := (name ^ ": " ^ detail) :: !violations in
  check "conservation"
    (initial_added + adds_ok = removes_ok && Mc_pool.size pool = 0)
    (Printf.sprintf "initial %d + adds %d <> removes %d (+ %d left in pool)" initial_added
       adds_ok removes_ok (Mc_pool.size pool));
  check "segment consistency" (Mc_pool.check_segments pool)
    "atomic count <> stored elements (or above capacity)";
  check "capacity bound"
    (Atomic.get capacity_violations = 0)
    (Printf.sprintf "%d over-capacity sightings by the watcher" (Atomic.get capacity_violations));
  check "slot leak" (Mc_pool.claimed_count pool = 0)
    (Printf.sprintf "%d slots still claimed after every deregister" (Mc_pool.claimed_count pool));
  check "slot reuse"
    (let h = Mc_pool.register pool in
     let ok = Mc_pool.slot h >= 0 in
     Mc_pool.deregister pool h;
     ok)
    "register after churn failed";
  check "registered accounting" (Mc_pool.registered pool = 0)
    (Printf.sprintf "%d workers still registered" (Mc_pool.registered pool));
  (* The telemetry must agree with the ground truth the tallies recorded. *)
  check "telemetry: removes"
    (Mc_stats.removes merged = removes_ok)
    (Printf.sprintf "stats %d <> tally %d" (Mc_stats.removes merged) removes_ok);
  check "telemetry: adds"
    (Cpool_metrics.Counters.get (Mc_stats.counters merged) "adds"
     + Cpool_metrics.Counters.get (Mc_stats.counters merged) "spill adds"
     = initial_added + adds_ok)
    "stats adds+spills <> tally adds";
  check "telemetry: steals"
    (Cpool_metrics.Counters.get (Mc_stats.counters merged) "steals" = Mc_pool.steals pool)
    (Printf.sprintf "stats %d <> pool counter %d"
       (Cpool_metrics.Counters.get (Mc_stats.counters merged) "steals")
       (Mc_pool.steals pool));
  (* Path-accounting identity: every worker-loop iteration, prefill add and
     drain-phase remove performs at most one owner ring operation, so the
     ring-op counter can never exceed the ground truth of attempted
     operations (the bug the seed artifact shipped: fast_ops > ops because
     the two sides counted different populations). *)
  let ring_ops = Mc_stats.fast_path_ops merged in
  let ops_attempted =
    initial_added + sum (fun w -> w.w_ops) + sum (fun w -> w.w_drains)
  in
  check "telemetry: path accounting"
    (ring_ops <= ops_attempted)
    (Printf.sprintf "ring ops %d > attempted %d" ring_ops ops_attempted);
  (* Every pool-level spill lands in an MPSC inbox and nowhere else, and a
     drain can only move what a spill put there. *)
  let stat name = Cpool_metrics.Counters.get (Mc_stats.counters merged) name in
  check "telemetry: spills = inbox adds"
    (stat "spill adds" = stat "inbox adds")
    (Printf.sprintf "spill adds %d <> inbox adds %d" (stat "spill adds")
       (stat "inbox adds"));
  check "telemetry: inbox drained"
    (stat "inbox drained" <= stat "inbox adds")
    (Printf.sprintf "drained %d > added %d" (stat "inbox drained") (stat "inbox adds"));
  let traces = Mc_pool.traces pool in
  if cfg.trace then begin
    (* The tracer's drop-proof per-tag totals must agree with [Mc_stats]
       exactly: both are single-writer counters bumped at the same source
       lines, so any divergence is a lost event or a miswired hook. *)
    let ev_counts = Mc_trace.counts traces in
    let ev_args = Mc_trace.arg_totals traces in
    let ev tag = List.assoc tag ev_counts in
    let ev_sum tag = List.assoc tag ev_args in
    let stat name = Cpool_metrics.Counters.get (Mc_stats.counters merged) name in
    let reconcile label derived counter =
      check ("trace: " ^ label) (derived = counter)
        (Printf.sprintf "event-derived %d <> stats %d" derived counter)
    in
    reconcile "steals" (ev Mc_trace.Steal_claim) (stat "steals");
    reconcile "elements stolen" (ev_sum Mc_trace.Steal_claim) (stat "elements stolen");
    reconcile "probes" (ev Mc_trace.Steal_probe) (stat "segments examined");
    reconcile "adds" (ev Mc_trace.Add) (stat "adds");
    reconcile "spills" (ev Mc_trace.Spill) (stat "spill adds");
    reconcile "local removes" (ev Mc_trace.Remove) (stat "local removes");
    reconcile "sweeps" (ev Mc_trace.Sweep) (stat "sweeps");
    reconcile "hints published" (ev Mc_trace.Hint_publish) (Mc_stats.hints_published merged);
    reconcile "hints claimed" (ev Mc_trace.Hint_claim) (Mc_stats.hints_claimed merged);
    reconcile "hints delivered" (ev Mc_trace.Hint_deliver) (Mc_stats.hints_delivered merged);
    reconcile "hints expired" (ev Mc_trace.Hint_expire) (Mc_stats.hints_expired merged);
    (* MPSC telemetry: every traced lock-free spill push and every owner
       exchange-drain has a matching segment counter bump. *)
    reconcile "mpsc pushes" (ev Mc_trace.Mpsc_push) (stat "inbox adds");
    reconcile "mpsc drains" (ev Mc_trace.Mpsc_drain) (stat "inbox drains");
    reconcile "mpsc drained elements" (ev_sum Mc_trace.Mpsc_drain) (stat "inbox drained");
    (* Every park resolves: a searcher never returns from a hunt with its
       hint still on the board. *)
    reconcile "park/wake balance" (ev Mc_trace.Park) (ev Mc_trace.Wake)
  end;
  if cfg.kind = Mc_pool.Hinted then begin
    (* Hint-board accounting: at quiescence every published hint was either
       claimed by an adder or retracted (expired) by its searcher, and a
       delivery requires a claim. *)
    check "telemetry: hints"
      (Mc_stats.hints_published merged
      = Mc_stats.hints_claimed merged + Mc_stats.hints_expired merged)
      (Printf.sprintf "published %d <> claimed %d + expired %d"
         (Mc_stats.hints_published merged) (Mc_stats.hints_claimed merged)
         (Mc_stats.hints_expired merged));
    check "telemetry: hint deliveries"
      (Mc_stats.hints_delivered merged <= Mc_stats.hints_claimed merged)
      (Printf.sprintf "delivered %d > claimed %d" (Mc_stats.hints_delivered merged)
         (Mc_stats.hints_claimed merged))
  end;
  {
    config = cfg;
    duration;
    ops = sum (fun w -> w.w_ops);
    initial_added;
    adds_ok;
    adds_rejected = sum (fun w -> w.w_rejects);
    removes_ok;
    steals = Mc_pool.steals pool;
    per_worker;
    per_segment;
    merged;
    traces;
    violations = List.rev !violations;
  }

let elements_histogram r =
  let sample = Mc_stats.elements_per_steal r.merged in
  let hi = Float.max 8.0 (Cpool_metrics.Sample.max_value sample) in
  let h = Cpool_metrics.Histogram.create ~lo:0.0 ~hi:(hi +. 1.0) ~bins:8 in
  List.iter (Cpool_metrics.Histogram.add h) (Cpool_metrics.Sample.values sample);
  h

let render r =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "--- mc-stress %s: %d domains, %.2fs%s ---" (config_name r.config) r.config.domains
    r.duration
    (if r.config.churn then ", churn on" else "");
  line "%d ops (%.0f ops/s): %d+%d adds (%d rejected), %d removes, %d steals" r.ops
    (float_of_int r.ops /. Float.max 1e-9 r.duration)
    r.initial_added r.adds_ok r.adds_rejected r.removes_ok r.steals;
  if r.config.trace then
    line "trace: %d events recorded, %d overwritten by ring overflow"
      (Mc_trace.total_recorded r.traces)
      (Mc_trace.total_dropped r.traces);
  Buffer.add_string buf (Mc_stats.render_table ~title:"per-domain telemetry" r.per_worker);
  Buffer.add_char buf '\n';
  if r.config.kind = Mc_pool.Hinted then begin
    line "hint board: %d published, %d claimed, %d delivered, %d expired"
      (Mc_stats.hints_published r.merged)
      (Mc_stats.hints_claimed r.merged)
      (Mc_stats.hints_delivered r.merged)
      (Mc_stats.hints_expired r.merged);
    Buffer.add_char buf '\n'
  end;
  Buffer.add_string buf
    (Mc_stats.render_path_table ~title:"ring paths (per segment)" r.per_segment);
  Buffer.add_char buf '\n';
  let segs = Mc_stats.segments_per_steal r.merged in
  let elems = Mc_stats.elements_per_steal r.merged in
  let dist name sample =
    [
      name;
      Cpool_metrics.Render.float_cell (Cpool_metrics.Sample.mean sample);
      Cpool_metrics.Render.float_cell (Cpool_metrics.Sample.median sample);
      Cpool_metrics.Render.float_cell (Cpool_metrics.Sample.percentile sample 95.0);
      Cpool_metrics.Render.float_cell (Cpool_metrics.Sample.max_value sample);
    ]
  in
  Buffer.add_string buf
    (Cpool_metrics.Render.table ~title:"steal distributions (pool-wide)"
       ~headers:[ "metric"; "mean"; "p50"; "p95"; "max" ]
       ~rows:[ dist "segments examined/steal" segs; dist "elements stolen/steal" elems ]
       ());
  Buffer.add_char buf '\n';
  if not (Cpool_metrics.Sample.is_empty elems) then begin
    Buffer.add_string buf
      (Cpool_metrics.Render.table ~title:"elements stolen per steal"
         ~headers:[ "range"; "steals" ]
         ~rows:
           (List.map
              (fun (range, n) -> [ range; string_of_int n ])
              (Cpool_metrics.Histogram.to_rows (elements_histogram r)))
         ());
    Buffer.add_char buf '\n'
  end;
  (match r.violations with
  | [] -> line "invariants: conservation, segment consistency, capacity bound, slot lifecycle all OK"
  | vs ->
    line "INVARIANT VIOLATIONS:";
    List.iter (fun v -> line "  %s" v) vs);
  Buffer.contents buf
