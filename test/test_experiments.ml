(* Integration tests: each experiment runs on a small configuration and the
   paper's qualitative findings must hold. *)

open Cpool_experiments

(* Small but not degenerate: 16 processors (the tree and arrangement
   effects need width), fewer ops and a single trial. *)
let tiny =
  {
    Exp_config.quick with
    Exp_config.trials = 1;
    total_ops = 1500;
    initial_elements = 96;
    app_plies = 1;
    app_workers = [ 1; 4 ];
  }

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs))

(* --- fig2 --- *)

let fig2 = lazy (Fig2.run tiny)

let test_fig2_sparse_slower () =
  let r = Lazy.force fig2 in
  let series_mean lo hi series =
    List.filter_map
      (fun p ->
        if p.Fig2.x_add_percent >= lo && p.Fig2.x_add_percent <= hi
           && Float.is_finite p.Fig2.op_time
        then Some p.Fig2.op_time
        else None)
      series
    |> mean
  in
  let sparse = series_mean 5.0 45.0 r.Fig2.random_series in
  let sufficient = series_mean 55.0 100.0 r.Fig2.random_series in
  Alcotest.(check bool)
    (Printf.sprintf "sparse (%.0f us) slower than sufficient (%.0f us)" sparse sufficient)
    true (sparse > sufficient);
  (* "the performance generally levels off when more than 50% of the
     operations are adds": the sufficient side stays near the uncontended
     operation cost. *)
  Alcotest.(check bool) "sufficient mixes near uncontended cost" true (sufficient < 300.0)

let test_fig2_no_steals_when_sufficient () =
  let r = Lazy.force fig2 in
  List.iter
    (fun p ->
      if p.Fig2.x_add_percent > 55.0 && Float.is_finite p.Fig2.steal_fraction then
        Alcotest.(check bool)
          (Printf.sprintf "steals rare at %s" p.Fig2.label)
          true (p.Fig2.steal_fraction < 0.02))
    r.Fig2.random_series

let test_fig2_pc_measured_mix_monotone () =
  let r = Lazy.force fig2 in
  (* More producers -> higher measured add percentage. *)
  let xs = List.map (fun p -> p.Fig2.x_add_percent) r.Fig2.producer_consumer_series in
  let finite = List.filter Float.is_finite xs in
  Alcotest.(check bool) "measured mix increases with producers" true
    (List.sort compare finite = finite)

(* --- traces (figs 3-6) --- *)

let spread_of_first_steals r =
  let times = List.filter_map snd r.Traces.first_steal_time in
  match times with
  | [] -> 0.0
  | _ -> List.fold_left Float.max Float.neg_infinity times
         -. List.fold_left Float.min Float.infinity times

let test_traces_bunching kind () =
  (* Contiguous producers are first stolen from in a staggered sequence;
     balanced producers are hit nearly simultaneously. *)
  let unbalanced = Traces.run ~kind ~balanced:false tiny in
  let balanced = Traces.run ~kind ~balanced:true tiny in
  let su = spread_of_first_steals unbalanced and sb = spread_of_first_steals balanced in
  Alcotest.(check bool)
    (Printf.sprintf "first-steal spread: unbalanced %.0f us > balanced %.0f us" su sb)
    true (su > sb);
  Alcotest.(check int) "five producers traced" 5 (List.length unbalanced.Traces.producers)

let test_traces_record_steals () =
  let r = Traces.run ~kind:Cpool.Pool.Linear ~balanced:false tiny in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 r.Traces.producer_steals in
  Alcotest.(check bool) "producers were stolen from" true (total > 0);
  Alcotest.(check bool) "trace has events" true
    (Cpool_metrics.Trace.event_count r.Traces.trace > 0)

(* --- fig7 --- *)

let test_fig7_balanced_steals_more () =
  let r = Fig7.run tiny in
  (* Sum over the mid-range where the effect lives (paper Figure 7). *)
  let mid =
    List.filter
      (fun p -> p.Fig7.producers >= 5 && p.Fig7.producers <= 12
                && Float.is_finite p.Fig7.balanced && Float.is_finite p.Fig7.unbalanced)
      r.Fig7.points
  in
  let b = mean (List.map (fun p -> p.Fig7.balanced) mid) in
  let u = mean (List.map (fun p -> p.Fig7.unbalanced) mid) in
  Alcotest.(check bool)
    (Printf.sprintf "balanced (%.1f) > unbalanced (%.1f) elements per steal" b u)
    true (b > u)

(* --- comparison --- *)

let comparison = lazy (Comparison.run tiny)

let test_comparison_identical_when_sufficient () =
  let r = Lazy.force comparison in
  List.iter
    (fun row ->
      if row.Comparison.add_percent >= 60 then begin
        let times =
          List.map (fun (_, c) -> c.Comparison.op_time) row.Comparison.by_kind
          |> List.filter Float.is_finite
        in
        let lo = List.fold_left Float.min Float.infinity times in
        let hi = List.fold_left Float.max Float.neg_infinity times in
        Alcotest.(check bool)
          (Printf.sprintf "%s: algorithms within 25%%" row.Comparison.condition)
          true (hi /. lo < 1.25)
      end)
    r.Comparison.random_rows

let test_comparison_tree_examines_fewer () =
  (* "The tree algorithm, however, examines many fewer segments in the
     course of a steal than do either the linear or random algorithms" —
     most pronounced in the producer/consumer model with few producers,
     where the tree's empty-subtree marks steer consumers straight to the
     producers while linear/random walk through empty consumer segments. *)
  let r = Lazy.force comparison in
  let collect kind =
    List.filter_map
      (fun row ->
        (* Sparse side: 1..5 producers of 16 = up to ~31% adds. *)
        if row.Comparison.add_percent >= 1 && row.Comparison.add_percent <= 31 then begin
          let c = List.assoc kind row.Comparison.by_kind in
          if Float.is_finite c.Comparison.segments_per_steal then
            Some c.Comparison.segments_per_steal
          else None
        end
        else None)
      r.Comparison.balanced_pc_rows
  in
  let tree = mean (collect Cpool.Pool.Tree) in
  let linear = mean (collect Cpool.Pool.Linear) in
  let random = mean (collect Cpool.Pool.Random) in
  Alcotest.(check bool)
    (Printf.sprintf "tree %.1f < linear %.1f segments per steal" tree linear)
    true (tree < linear);
  Alcotest.(check bool)
    (Printf.sprintf "tree %.1f < random %.1f segments per steal" tree random)
    true (tree < random)

let test_comparison_tree_not_faster_sparse () =
  (* "the operation times in the tree search algorithm did not compare
     favorably for steal-intensive workloads" *)
  let r = Lazy.force comparison in
  let mean_time kind =
    List.filter_map
      (fun row ->
        if row.Comparison.add_percent <= 40 then begin
          let c = List.assoc kind row.Comparison.by_kind in
          if Float.is_finite c.Comparison.op_time then Some c.Comparison.op_time else None
        end
        else None)
      r.Comparison.random_rows
    |> mean
  in
  Alcotest.(check bool) "tree not faster than linear at sparse mixes" true
    (mean_time Cpool.Pool.Tree >= mean_time Cpool.Pool.Linear)

(* --- delay sweep --- *)

let test_delay_convergence () =
  let r = Delay_sweep.run ~delays:[ 0.0; 1_000.0; 100_000.0 ] tiny in
  match r.Delay_sweep.random_model with
  | [ zero; _; highest ] ->
    let s0 = Delay_sweep.convergence_ratio zero in
    let s2 = Delay_sweep.convergence_ratio highest in
    Alcotest.(check bool)
      (Printf.sprintf "spread shrinks: %.2f -> %.2f" s0 s2)
      true (s2 < s0);
    Alcotest.(check bool) "near-identical at extreme delay" true (s2 < 0.25)
  | _ -> Alcotest.fail "expected three delay points"

let test_delay_tree_never_wins () =
  let r = Delay_sweep.run ~delays:[ 0.0; 10_000.0 ] tiny in
  List.iter
    (fun pt ->
      let v kind = List.assoc kind pt.Delay_sweep.by_kind in
      Alcotest.(check bool)
        (Printf.sprintf "tree not fastest at delay %g" pt.Delay_sweep.delay)
        true
        (v Cpool.Pool.Tree >= Float.min (v Cpool.Pool.Linear) (v Cpool.Pool.Random) *. 0.99))
    r.Delay_sweep.random_model

(* --- steal stats --- *)

let test_balancing_improves_steals () =
  let r = Steal_stats.run ~producer_counts:[ 3; 5; 8 ] tiny in
  let wins, total = Steal_stats.balanced_wins r in
  Alcotest.(check bool)
    (Printf.sprintf "balancing helped at %d of %d producer counts" wins total)
    true (wins * 2 >= total)

(* --- application --- *)

let test_application_shapes () =
  let r = Application.run tiny in
  (* Leaf count at 1 ply from the empty board. *)
  Alcotest.(check int) "positions" 64 r.Application.positions;
  let speedup scheduler workers =
    match
      List.find_opt
        (fun row -> row.Application.scheduler = scheduler && row.Application.workers = workers)
        r.Application.rows
    with
    | Some row -> row.Application.speedup
    | None -> Float.nan
  in
  let pool4 = speedup (Cpool_game.Parallel.Pool_scheduler Cpool.Pool.Linear) 4 in
  Alcotest.(check bool) (Printf.sprintf "pool speeds up (%.2f)" pool4) true (pool4 > 1.5)

let test_application_checks_values () =
  (* Application.run raises if any scheduler disagrees with sequential
     minimax; reaching here is the assertion. *)
  ignore (Application.run tiny)

(* --- ablation + registry --- *)

let test_ablation_ranking () =
  let r = Ablation.run tiny in
  Alcotest.(check bool) "profiles preserve ranking" true (Ablation.ranking_preserved r);
  List.iter
    (fun row ->
      Alcotest.(check bool)
        (Cpool_intf.to_string row.Ablation.kind ^ ": boxed not cheaper")
        true
        (row.Ablation.boxed.Ablation.op_time >= row.Ablation.counting.Ablation.op_time *. 0.98))
    r.Ablation.rows

let test_extension_experiments_smoke () =
  (* Every extension/ablation experiment runs end to end on a micro config
     and renders something substantial. *)
  let micro =
    {
      tiny with
      Exp_config.total_ops = 600;
      initial_elements = 48;
      dib_n = 6;
      app_workers = [ 1; 4 ];
    }
  in
  List.iter
    (fun id ->
      match Registry.find id with
      | Some entry ->
        let out = entry.Registry.run micro in
        Alcotest.(check bool) (id ^ " renders") true (String.length out > 100)
      | None -> Alcotest.failf "experiment %s missing" id)
    [ "lockprobe"; "hints"; "bounded"; "phases"; "dib"; "classed" ]

let test_registry_ids_unique () =
  let ids = Registry.ids in
  Alcotest.(check int) "no duplicates" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  Alcotest.(check bool) "18 experiments" true (List.length ids = 18);
  Alcotest.(check bool) "find works" true (Registry.find "fig2" <> None);
  Alcotest.(check bool) "find misses" true (Registry.find "nope" = None)

let test_presets () =
  Alcotest.(check string) "paper" "paper" (Exp_config.name Exp_config.paper);
  Alcotest.(check string) "quick" "quick" (Exp_config.name Exp_config.quick);
  Alcotest.(check int) "paper trials" 10 Exp_config.paper.Exp_config.trials;
  Alcotest.(check int) "paper ops" 5000 Exp_config.paper.Exp_config.total_ops;
  Alcotest.(check int) "paper fill" 320 Exp_config.paper.Exp_config.initial_elements

let suites =
  [
    ( "experiments",
      [
        Alcotest.test_case "fig2: sparse slower" `Slow test_fig2_sparse_slower;
        Alcotest.test_case "fig2: no steals when sufficient" `Slow
          test_fig2_no_steals_when_sufficient;
        Alcotest.test_case "fig2: p/c mix monotone" `Slow test_fig2_pc_measured_mix_monotone;
        Alcotest.test_case "traces: bunching (linear)" `Slow
          (test_traces_bunching Cpool.Pool.Linear);
        Alcotest.test_case "traces: bunching (tree)" `Slow (test_traces_bunching Cpool.Pool.Tree);
        Alcotest.test_case "traces: steals recorded" `Slow test_traces_record_steals;
        Alcotest.test_case "fig7: balanced steals more" `Slow test_fig7_balanced_steals_more;
        Alcotest.test_case "compare: identical when sufficient" `Slow
          test_comparison_identical_when_sufficient;
        Alcotest.test_case "compare: tree examines fewer" `Slow test_comparison_tree_examines_fewer;
        Alcotest.test_case "compare: tree not faster sparse" `Slow
          test_comparison_tree_not_faster_sparse;
        Alcotest.test_case "delay: convergence" `Slow test_delay_convergence;
        Alcotest.test_case "delay: tree never wins" `Slow test_delay_tree_never_wins;
        Alcotest.test_case "steals: balancing improves" `Slow test_balancing_improves_steals;
        Alcotest.test_case "app: shapes" `Slow test_application_shapes;
        Alcotest.test_case "app: values checked" `Slow test_application_checks_values;
        Alcotest.test_case "ablation: ranking preserved" `Slow test_ablation_ranking;
        Alcotest.test_case "extension experiments smoke" `Slow test_extension_experiments_smoke;
        Alcotest.test_case "registry: ids" `Quick test_registry_ids_unique;
        Alcotest.test_case "presets" `Quick test_presets;
      ] );
  ]
