module Workload = Cpool_intf.Workload

type config = {
  kinds : Mc_pool.kind list;
  domain_counts : int list;
  workloads : Workload.t list;
  capacity : int option;
  seed : int;
  trace : bool;
  topo_of : (int -> (Cpool_topology.t, string) result) option;
      (* Resolves a domain count to the topology for that grid column (a
         preset scales with the count; a config file only matches its own).
         When set, the topology cells — aware vs distance-oblivious twins —
         run in addition to the plain grid, into the same artifact. *)
}

let default =
  {
    kinds = [ Mc_pool.Linear ];
    domain_counts = [ 2; 8 ];
    workloads = [ Workload.sufficient; Workload.sparse ];
    capacity = None;
    seed = 42;
    trace = false;
    topo_of = None;
  }

type cell = {
  kind : Mc_pool.kind;
  domains : int;
  workload : Workload.t;
  topo : Cpool_topology.t option;
  aware : bool; (* meaningful only with [topo]: false = oblivious twin *)
}

type result = {
  cell : cell;
  duration : float;
  ops : int;
  ops_attempted : int;
  ops_per_sec : float;
  adds_ok : int;
  removes_ok : int;
  p50_us : float;
  p99_us : float;
  fast_ops : int;
  steals : int;
  batched_steals : int;
  mean_batch : float;
  hints_published : int;
  hints_claimed : int;
  hints_delivered : int;
  hints_expired : int;
  near_steals : int;
  far_steals : int;
  near_probes : int;
  far_probes : int;
  mean_near_batch : float;
  mean_far_batch : float;
  traces : Mc_trace.t list;
}

type tally = {
  mutable t_ops : int;
  mutable t_adds : int;
  mutable t_removes : int;
  t_lat : Cpool_metrics.Sample.t; (* sampled per-op latency, µs *)
}

(* Latency sampling: every [sample_every]-th batch of [batch] ops is timed
   as a group and recorded as µs per op. Group timing is what makes sub-µs
   operations resolve, while a slow steal or lock inside the window still
   lifts that sample into the tail. All timing reads the monotonic
   [Cpool_util.Clock] — the wall clock jumps under NTP steps, which fed
   negative batch latencies into [Sample.add] and moved the run
   deadline. Each worker's sampling phase is drawn from its seeded [Rng]:
   a fixed phase (always the [sample_every]-th batch) aliases with
   periodic steal/backoff cycles and biases the latency distribution. *)
let batch = 16

let sample_every = 8

(* The phase mask below requires it. *)
let () = assert (sample_every > 0 && sample_every land (sample_every - 1) = 0)

let worker pool cell ~seed tally i barrier deadline_ns =
  let rng = Cpool_util.Rng.create (Int64.of_int ((seed * 6007) + i)) in
  let add_threshold = int_of_float (cell.workload.Workload.mix *. 1_000_000.0) in
  let sample_phase = Cpool_util.Rng.int rng sample_every in
  let h = Mc_pool.register_at pool i in
  Atomic.decr barrier;
  while Atomic.get barrier > 0 do
    Domain.cpu_relax ()
  done;
  (* Sparse cells use the blocking remove: the pool runs dry by design, so
     "what does a searcher do about an empty pool" — spin-searching
     (Linear/Random/Tree) vs parking on the hint board (Hinted) — is
     exactly the behaviour under test. Blocking removes can stall until a
     peer adds, so the deadline is checked every batch. Sufficient cells
     keep the non-blocking remove and the sparser deadline check. *)
  let blocking = Workload.sparse_regime cell.workload in
  let deadline_mask = if blocking then 0 else 15 in
  let batches = ref 0 in
  let running = ref true in
  while !running do
    incr batches;
    let timed = (!batches + sample_phase) land (sample_every - 1) = 0 in
    let t0 = if timed then Cpool_util.Clock.now_ns () else 0 in
    for _ = 1 to batch do
      tally.t_ops <- tally.t_ops + 1;
      if Cpool_util.Rng.int rng 1_000_000 < add_threshold then begin
        if Mc_pool.try_add pool h tally.t_ops then tally.t_adds <- tally.t_adds + 1
      end
      else
        match
          if blocking then Mc_pool.remove pool h else Mc_pool.try_remove pool h
        with
        | Some _ -> tally.t_removes <- tally.t_removes + 1
        | None -> ()
    done;
    if timed then begin
      let dt_ns = Cpool_util.Clock.now_ns () - t0 in
      (* A negative delta is impossible on a monotonic source; the guard
         survives the wall-clock fallback on clockless platforms. *)
      if dt_ns >= 0 then
        Cpool_metrics.Sample.add tally.t_lat
          (float_of_int dt_ns /. 1e3 /. float_of_int batch)
    end;
    if !batches land deadline_mask = 0 && Cpool_util.Clock.now_ns () >= deadline_ns
    then running := false
  done;
  Mc_pool.deregister pool h

(* Returns the number of add attempts it made: prefill pushes count on the
   segment stats like any other op, so the attempt count must join the
   workers' in the [ops_attempted] accounting. *)
let prefill pool ~capacity ~per_domain domains =
  let quota = match capacity with None -> per_domain | Some c -> Int.min per_domain c in
  for s = 0 to domains - 1 do
    let h = Mc_pool.register_at pool s in
    for j = 1 to quota do
      ignore (Mc_pool.try_add pool h j)
    done;
    Mc_pool.deregister pool h
  done;
  quota * domains

let run_cell ?seconds ?(capacity = None) ?(seed = 42) ?(trace = false) cell =
  if cell.domains <= 0 then invalid_arg "Mc_bench.run_cell: domains must be positive";
  if not (Workload.closed cell.workload) then
    invalid_arg "Mc_bench.run_cell: the throughput harness is closed-loop only";
  let seconds =
    match seconds with Some s -> s | None -> cell.workload.Workload.duration_s
  in
  if seconds <= 0.0 then invalid_arg "Mc_bench.run_cell: seconds must be positive";
  let pool : int Mc_pool.t =
    Mc_pool.of_config
      {
        Mc_pool.Config.default with
        segments = cell.domains;
        kind = cell.kind;
        capacity;
        trace;
        topology = cell.topo;
        topology_aware = cell.aware;
      }
  in
  let prefill_attempts =
    prefill pool ~capacity ~per_domain:cell.workload.Workload.initial cell.domains
  in
  let tallies =
    Array.init cell.domains (fun _ ->
        { t_ops = 0; t_adds = 0; t_removes = 0; t_lat = Cpool_metrics.Sample.create () })
  in
  let barrier = Atomic.make cell.domains in
  let t0_ns = Cpool_util.Clock.now_ns () in
  let deadline_ns = t0_ns + Cpool_util.Clock.ns_of_s seconds in
  let ds =
    List.init cell.domains (fun i ->
        Domain.spawn (fun () -> worker pool cell ~seed tallies.(i) i barrier deadline_ns))
  in
  List.iter Domain.join ds;
  let duration = Cpool_util.Clock.elapsed_s ~since_ns:t0_ns in
  let seg = Mc_stats.merge_all (Array.to_list (Mc_pool.segment_stats pool)) in
  (* Hint counters live on the handle side; [Mc_pool.stats] merges every
     handle ever issued (the workers just deregistered, so it is exact). *)
  let all = Mc_pool.stats pool in
  let lat =
    Array.fold_left
      (fun acc t -> Cpool_metrics.Sample.merge acc t.t_lat)
      (Cpool_metrics.Sample.create ())
      tallies
  in
  let sum f = Array.fold_left (fun acc t -> acc + f t) 0 tallies in
  let ops = sum (fun t -> t.t_ops) in
  {
    cell;
    duration;
    ops;
    ops_attempted = ops + prefill_attempts;
    ops_per_sec = float_of_int ops /. Float.max 1e-9 duration;
    adds_ok = sum (fun t -> t.t_adds);
    removes_ok = sum (fun t -> t.t_removes);
    p50_us = Cpool_metrics.Sample.median lat;
    p99_us = Cpool_metrics.Sample.percentile lat 99.0;
    fast_ops = Mc_stats.fast_path_ops seg;
    steals = Mc_pool.steals pool;
    (* Batch telemetry lives on the thief's handle now, so it comes from
       the merged handle stats, not the (victim) segment stats. *)
    batched_steals =
      Cpool_metrics.Counters.get (Mc_stats.counters all) "batched steals";
    mean_batch = Cpool_metrics.Sample.mean (Mc_stats.steal_batch_sizes all);
    hints_published = Mc_stats.hints_published all;
    hints_claimed = Mc_stats.hints_claimed all;
    hints_delivered = Mc_stats.hints_delivered all;
    hints_expired = Mc_stats.hints_expired all;
    near_steals = Mc_stats.near_steals all;
    far_steals = Mc_stats.far_steals all;
    near_probes = Mc_stats.near_probes all;
    far_probes = Mc_stats.far_probes all;
    mean_near_batch = Cpool_metrics.Sample.mean (Mc_stats.near_steal_batch_sizes all);
    mean_far_batch = Cpool_metrics.Sample.mean (Mc_stats.far_steal_batch_sizes all);
    traces = Mc_pool.traces pool;
  }

let run config =
  let grid =
    List.concat_map
      (fun kind ->
        List.concat_map
          (fun domains ->
            List.map
              (fun workload ->
                run_cell ~capacity:config.capacity ~seed:config.seed
                  ~trace:config.trace
                  { kind; domains; workload; topo = None; aware = true })
              config.workloads)
          config.domain_counts)
      config.kinds
  in
  match config.topo_of with
  | None -> grid
  | Some topo_of ->
    (* Topology cells: each runs twice, topology-aware and as the
       distance-oblivious twin, so the comparison isolates the
       probe-ordering policy on the same emulated machine. The CLI
       pre-validates the spec, so a resolution failure here is a driver
       bug, not user error. *)
    grid
    @ List.concat_map
        (fun kind ->
          List.concat_map
            (fun domains ->
              let topo =
                match topo_of domains with
                | Ok t -> t
                | Error msg -> failwith ("Mc_bench.run: " ^ msg)
              in
              List.concat_map
                (fun workload ->
                  List.map
                    (fun aware ->
                      run_cell ~capacity:config.capacity ~seed:config.seed
                        ~trace:config.trace
                        { kind; domains; workload; topo = Some topo; aware })
                    [ true; false ])
                config.workloads)
            config.domain_counts)
        config.kinds

let cell_label c =
  Printf.sprintf "%s/%dd/%s%s" (Mc_stress.kind_name c.kind) c.domains
    (Workload.mix_label c.workload)
    (match c.topo with
    | None -> ""
    | Some _ -> if c.aware then "/topo" else "/topo-blind")

let to_chrome results =
  Mc_trace.to_chrome_labeled
    (List.map (fun r -> (cell_label r.cell, r.traces)) results)

let render results =
  let buf = Buffer.create 1024 in
  let row r =
    [
      cell_label r.cell;
      Printf.sprintf "%.0f" r.ops_per_sec;
      Cpool_metrics.Render.float_cell r.p50_us;
      Cpool_metrics.Render.float_cell r.p99_us;
      string_of_int r.steals;
      string_of_int r.batched_steals;
      Cpool_metrics.Render.float_cell r.mean_batch;
      string_of_int r.hints_delivered;
    ]
  in
  Buffer.add_string buf
    (Cpool_metrics.Render.table ~title:"mc-throughput"
       ~headers:
         [
           "cell"; "ops/s"; "p50 µs"; "p99 µs"; "steals"; "batched"; "elems/batch";
           "deliv";
         ]
       ~rows:(List.map row results) ());
  (* The hinted hand-off's headline: Hinted vs Linear on otherwise
     identical cells (the paper's §5 comparison, sparse mix being the
     regime it targets). *)
  let hinted_vs_linear =
    List.filter_map
      (fun r ->
        if r.cell.kind <> Cpool_intf.Hinted then None
        else
          List.find_opt (fun l -> l.cell = { r.cell with kind = Cpool_intf.Linear }) results
          |> Option.map (fun l -> (r, l)))
      results
  in
  if hinted_vs_linear <> [] then begin
    Buffer.add_char buf '\n';
    List.iter
      (fun (h, l) ->
        Buffer.add_string buf
          (Printf.sprintf "hinted vs linear %dd/%s: %.2fx (%.0f vs %.0f ops/s)\n"
             h.cell.domains (Workload.mix_label h.cell.workload)
             (h.ops_per_sec /. Float.max 1e-9 l.ops_per_sec)
             h.ops_per_sec l.ops_per_sec))
      hinted_vs_linear
  end;
  (* Locality telemetry and the topology headline: aware vs the
     distance-oblivious twin on the same emulated machine. *)
  let topo_results = List.filter (fun r -> r.cell.topo <> None) results in
  if topo_results <> [] then begin
    Buffer.add_char buf '\n';
    let trow r =
      [
        cell_label r.cell;
        string_of_int r.near_probes;
        string_of_int r.far_probes;
        string_of_int r.near_steals;
        string_of_int r.far_steals;
        Cpool_metrics.Render.float_cell r.mean_near_batch;
        Cpool_metrics.Render.float_cell r.mean_far_batch;
      ]
    in
    Buffer.add_string buf
      (Cpool_metrics.Render.table ~title:"mc-topology near/far"
         ~headers:
           [
             "cell"; "near probes"; "far probes"; "near steals"; "far steals";
             "elems/near"; "elems/far";
           ]
         ~rows:(List.map trow topo_results) ());
    let topo_twins =
      List.filter_map
        (fun r ->
          if not r.cell.aware then None
          else
            List.find_opt (fun b -> b.cell = { r.cell with aware = false })
              topo_results
            |> Option.map (fun b -> (r, b)))
        topo_results
    in
    if topo_twins <> [] then begin
      Buffer.add_char buf '\n';
      List.iter
        (fun (a, b) ->
          Buffer.add_string buf
            (Printf.sprintf
               "topology-aware %s: %.2fx over the distance-oblivious twin (%.0f vs %.0f ops/s)\n"
               (cell_label a.cell)
               (a.ops_per_sec /. Float.max 1e-9 b.ops_per_sec)
               a.ops_per_sec b.ops_per_sec))
        topo_twins
    end
  end;
  Buffer.contents buf

let json_of_result r =
  let topo_fields =
    match r.cell.topo with
    | None -> []
    | Some topo ->
      [
        ("topology", Cpool_util.Json.Str (Cpool_topology.label topo));
        ("topology_aware", Cpool_util.Json.Bool r.cell.aware);
        ("near_steals", Cpool_util.Json.Int r.near_steals);
        ("far_steals", Cpool_util.Json.Int r.far_steals);
        ("near_probes", Cpool_util.Json.Int r.near_probes);
        ("far_probes", Cpool_util.Json.Int r.far_probes);
        ("mean_near_batch", Cpool_util.Json.Float r.mean_near_batch);
        ("mean_far_batch", Cpool_util.Json.Float r.mean_far_batch);
      ]
  in
  Cpool_util.Json.Assoc
    ([
      ("kind", Cpool_util.Json.Str (Mc_stress.kind_name r.cell.kind));
      ("domains", Cpool_util.Json.Int r.cell.domains);
      ("mix", Cpool_util.Json.Str (Workload.mix_label r.cell.workload));
      ("workload", Cpool_util.Json.Str (Workload.to_string r.cell.workload));
      ("duration_s", Cpool_util.Json.Float r.duration);
      ("ops", Cpool_util.Json.Int r.ops);
      ("ops_attempted", Cpool_util.Json.Int r.ops_attempted);
      ("ops_per_sec", Cpool_util.Json.Float r.ops_per_sec);
      ("adds_ok", Cpool_util.Json.Int r.adds_ok);
      ("removes_ok", Cpool_util.Json.Int r.removes_ok);
      ("p50_us", Cpool_util.Json.Float r.p50_us);
      ("p99_us", Cpool_util.Json.Float r.p99_us);
      ("fast_ops", Cpool_util.Json.Int r.fast_ops);
      ("steals", Cpool_util.Json.Int r.steals);
      ("batched_steals", Cpool_util.Json.Int r.batched_steals);
      ("mean_batch", Cpool_util.Json.Float r.mean_batch);
      ("hints_published", Cpool_util.Json.Int r.hints_published);
      ("hints_claimed", Cpool_util.Json.Int r.hints_claimed);
      ("hints_delivered", Cpool_util.Json.Int r.hints_delivered);
      ("hints_expired", Cpool_util.Json.Int r.hints_expired);
    ]
    @ topo_fields)

let to_json config results =
  Cpool_util.Json.Assoc
    [
      ("benchmark", Cpool_util.Json.Str "mc-throughput");
      ( "workloads",
        Cpool_util.Json.List
          (List.map
             (fun w -> Cpool_util.Json.Str (Workload.to_string w))
             config.workloads) );
      ( "capacity",
        match config.capacity with
        | None -> Cpool_util.Json.Null
        | Some c -> Cpool_util.Json.Int c );
      ("seed", Cpool_util.Json.Int config.seed);
      ("cells", Cpool_util.Json.List (List.map json_of_result results));
    ]

let validate_json doc =
  let module J = Cpool_util.Json in
  let ( let* ) = Result.bind in
  let field obj name =
    match J.member name obj with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %S" name)
  in
  let number obj name =
    let* v = field obj name in
    match J.to_number v with
    | Some _ -> Ok ()
    | None -> Error (Printf.sprintf "field %S is not a number" name)
  in
  let* bench = field doc "benchmark" in
  let* () =
    match bench with
    | J.Str "mc-throughput" -> Ok ()
    | _ -> Error "field \"benchmark\" is not \"mc-throughput\""
  in
  let* cells = field doc "cells" in
  match J.to_list cells with
  | None -> Error "field \"cells\" is not a list"
  | Some cs ->
    let rec check i = function
      | [] -> Ok (List.length cs)
      | c :: rest ->
        let* () =
          List.fold_left
            (fun acc name ->
              let* () = acc in
              Result.map_error
                (fun e -> Printf.sprintf "cell %d: %s" i e)
                (number c name))
            (Ok ())
            [
              "domains"; "ops"; "ops_attempted"; "ops_per_sec"; "fast_ops";
              "steals"; "hints_published"; "hints_claimed"; "hints_delivered";
              "hints_expired";
            ]
        in
        (* Counter-accounting identities: the ring-op counter counts a
           subset of the attempted operations, so an artifact where it
           exceeds the attempts is self-contradictory (the seed shipped one
           such cell: fast_ops > ops). *)
        let get name =
          match J.member name c with Some v -> J.to_number v | None -> None
        in
        let* () =
          match (get "fast_ops", get "ops", get "ops_attempted") with
          | Some f, Some o, Some a ->
            if f > a then
              Error (Printf.sprintf "cell %d: fast_ops %.0f > ops_attempted %.0f" i f a)
            else if o > a then
              Error (Printf.sprintf "cell %d: ops %.0f > ops_attempted %.0f" i o a)
            else Ok ()
          | _ -> Error (Printf.sprintf "cell %d: path counters are not numbers" i)
        in
        (* Topology cells must carry the locality split, and it must tile
           the steal count exactly: every steal is near or far, nothing
           else. *)
        let* () =
          match J.member "topology" c with
          | None -> Ok ()
          | Some _ -> (
            let* () =
              match J.member "topology_aware" c with
              | Some (J.Bool _) -> Ok ()
              | Some _ | None ->
                Error
                  (Printf.sprintf "cell %d: missing boolean \"topology_aware\"" i)
            in
            let* () =
              List.fold_left
                (fun acc name ->
                  let* () = acc in
                  Result.map_error
                    (fun e -> Printf.sprintf "cell %d: %s" i e)
                    (number c name))
                (Ok ())
                [ "near_steals"; "far_steals"; "near_probes"; "far_probes" ]
            in
            match (get "near_steals", get "far_steals", get "steals") with
            | Some near, Some far, Some steals ->
              if near +. far <> steals then
                Error
                  (Printf.sprintf
                     "cell %d: near_steals %.0f + far_steals %.0f <> steals %.0f"
                     i near far steals)
              else Ok ()
            | _ ->
              Error (Printf.sprintf "cell %d: locality counters are not numbers" i))
        in
        check (i + 1) rest
    in
    check 0 cs
