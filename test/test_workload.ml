(* Tests for roles, arrangements and the experiment driver. *)

open Cpool
open Cpool_metrics
open Cpool_workload

(* --- Roles --- *)

let test_uniform_mix () =
  let roles = Role.uniform_mix ~participants:4 ~add_percent:30 in
  Alcotest.(check int) "length" 4 (Array.length roles);
  Array.iter
    (fun r -> if r <> Role.Mixed 30 then Alcotest.fail "expected Mixed 30")
    roles

let test_uniform_mix_invalid () =
  Alcotest.check_raises "percent" (Invalid_argument "Role: add_percent out of [0, 100]")
    (fun () -> ignore (Role.uniform_mix ~participants:4 ~add_percent:101));
  Alcotest.check_raises "participants" (Invalid_argument "Role: participants must be positive")
    (fun () -> ignore (Role.uniform_mix ~participants:0 ~add_percent:50))

let test_contiguous () =
  let roles = Role.contiguous_producers ~participants:16 ~producers:5 in
  Alcotest.(check (list int)) "first five" [ 0; 1; 2; 3; 4 ] (Role.producer_positions roles)

let test_balanced () =
  let roles = Role.balanced_producers ~participants:16 ~producers:5 in
  let positions = Role.producer_positions roles in
  Alcotest.(check int) "five producers" 5 (List.length positions);
  (* Spread: no two producers adjacent when 5 of 16. *)
  let rec pairwise = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "spaced" true (b - a >= 2);
      pairwise rest
    | _ -> ()
  in
  pairwise positions;
  Alcotest.(check (list int)) "positions" [ 0; 3; 6; 9; 12 ] positions

let test_balanced_extremes () =
  Alcotest.(check (list int)) "zero producers" []
    (Role.producer_positions (Role.balanced_producers ~participants:8 ~producers:0));
  Alcotest.(check int) "all producers" 8
    (List.length (Role.producer_positions (Role.balanced_producers ~participants:8 ~producers:8)))

let prop_balanced_distinct_positions =
  QCheck.Test.make ~name:"balanced arrangement places each producer once" ~count:200
    QCheck.(pair (int_range 1 64) (int_range 0 64))
    (fun (participants, producers_raw) ->
      let producers = min producers_raw participants in
      let roles = Role.balanced_producers ~participants ~producers in
      List.length (Role.producer_positions roles) = producers)

let test_effective_mix () =
  Alcotest.(check int) "5 of 16 producers" 31
    (Role.effective_add_percent (Role.contiguous_producers ~participants:16 ~producers:5));
  Alcotest.(check int) "uniform 40" 40
    (Role.effective_add_percent (Role.uniform_mix ~participants:16 ~add_percent:40));
  Alcotest.(check int) "all producers" 100
    (Role.effective_add_percent (Role.contiguous_producers ~participants:4 ~producers:4))

(* --- Driver --- *)

let quick_spec ?(segments = 8) ?(kind = Pool.Linear) ?(roles = None) ?(total_ops = 400)
    ?(initial_elements = 40) ?(seed = 42L) ?(record_trace = false) () =
  let roles =
    match roles with
    | Some r -> r
    | None -> Role.uniform_mix ~participants:segments ~add_percent:50
  in
  {
    Driver.default_spec with
    pool = { Pool.default_config with segments; kind };
    roles;
    total_ops;
    initial_elements;
    seed;
    record_trace;
  }

let test_driver_runs_quota () =
  let r = Driver.run (quick_spec ()) in
  Alcotest.(check int) "all ops performed" 400 r.Driver.ops_performed;
  let t = r.Driver.pool_totals in
  Alcotest.(check int) "ops partition" 400
    (t.Pool.adds + t.Pool.removes + r.Driver.aborts)

let test_driver_conservation () =
  let r = Driver.run (quick_spec ~seed:7L ()) in
  let t = r.Driver.pool_totals in
  let final_total = Array.fold_left ( + ) 0 r.Driver.final_sizes in
  Alcotest.(check int) "elements conserved" (40 + t.Pool.adds - t.Pool.removes) final_total

let test_driver_sufficient_mix_no_steals () =
  (* 70% adds: segments keep growing, steals should be (almost) absent; the
     paper: "no steals are performed with a sufficient mix". *)
  let roles = Role.uniform_mix ~participants:8 ~add_percent:70 in
  let r = Driver.run (quick_spec ~roles:(Some roles) ()) in
  Alcotest.(check int) "no steals" 0 r.Driver.pool_totals.Pool.steals;
  Alcotest.(check int) "no aborts" 0 r.Driver.aborts

let test_driver_sparse_mix_steals () =
  let roles = Role.uniform_mix ~participants:8 ~add_percent:20 in
  let r = Driver.run (quick_spec ~roles:(Some roles) ~initial_elements:16 ()) in
  Alcotest.(check bool) "steals happen" true (r.Driver.pool_totals.Pool.steals > 0)

let test_driver_producer_consumer () =
  let roles = Role.contiguous_producers ~participants:8 ~producers:4 in
  let r = Driver.run (quick_spec ~roles:(Some roles) ()) in
  let t = r.Driver.pool_totals in
  Alcotest.(check bool) "consumers always steal or drain prefill" true (t.Pool.steals > 0);
  Alcotest.(check bool) "producers added" true (t.Pool.adds > 0)

let test_driver_all_consumers_abort () =
  let roles = Role.contiguous_producers ~participants:8 ~producers:0 in
  let r = Driver.run (quick_spec ~roles:(Some roles) ~total_ops:200 ~initial_elements:24 ()) in
  let t = r.Driver.pool_totals in
  Alcotest.(check int) "removed exactly the prefill" 24 t.Pool.removes;
  Alcotest.(check int) "rest aborted" (200 - 24) r.Driver.aborts;
  Alcotest.(check int) "pool empty" 0 (Array.fold_left ( + ) 0 r.Driver.final_sizes)

let test_driver_all_producers () =
  let roles = Role.contiguous_producers ~participants:8 ~producers:8 in
  let r = Driver.run (quick_spec ~roles:(Some roles) ~total_ops:200 ()) in
  Alcotest.(check int) "all adds" 200 r.Driver.pool_totals.Pool.adds;
  Alcotest.(check int) "no removes" 0 r.Driver.pool_totals.Pool.removes

let test_driver_trace () =
  let r = Driver.run (quick_spec ~record_trace:true ()) in
  match r.Driver.trace with
  | Some trace ->
    Alcotest.(check bool) "events recorded" true (Trace.event_count trace > 0);
    Alcotest.(check bool) "duration sane" true (Trace.duration trace <= r.Driver.duration)
  | None -> Alcotest.fail "expected a trace"

let test_driver_no_trace_by_default () =
  let r = Driver.run (quick_spec ()) in
  Alcotest.(check bool) "no trace" true (r.Driver.trace = None)

let test_driver_deterministic () =
  let run () =
    let r = Driver.run (quick_spec ~kind:Pool.Tree ~seed:5L ()) in
    (r.Driver.duration, r.Driver.pool_totals, Sample.mean r.Driver.op_time)
  in
  Alcotest.(check bool) "reproducible" true (run () = run ())

let test_driver_seeds_differ () =
  let dur seed = (Driver.run (quick_spec ~seed ())).Driver.duration in
  Alcotest.(check bool) "different seeds, different runs" true (dur 1L <> dur 2L)

let test_driver_role_length_checked () =
  let spec = quick_spec () in
  let bad = { spec with roles = Role.uniform_mix ~participants:3 ~add_percent:50 } in
  Alcotest.check_raises "mismatch" (Invalid_argument "Driver.run: one role per participant required")
    (fun () -> ignore (Driver.run bad))

let test_uncontended_calibration () =
  (* A single participant alternating add/remove, everything local: the
     uncontended operation times should sit near the paper's reported
     ~70 us adds and ~110 us removes (Section 4.3). *)
  let spec =
    {
      (quick_spec ~segments:1 ~total_ops:100 ~initial_elements:10
         ~roles:(Some (Role.uniform_mix ~participants:1 ~add_percent:50))
         ())
      with
      pool = { Pool.default_config with segments = 1 };
    }
  in
  let r = Driver.run spec in
  let add = Sample.mean r.Driver.add_time and remove = Sample.mean r.Driver.remove_time in
  Alcotest.(check bool) (Printf.sprintf "add ~70us (got %.1f)" add) true
    (add > 60.0 && add < 80.0);
  Alcotest.(check bool) (Printf.sprintf "remove ~110us (got %.1f)" remove) true
    (remove > 100.0 && remove < 120.0)

let test_steal_fraction () =
  let roles = Role.contiguous_producers ~participants:8 ~producers:4 in
  let r = Driver.run (quick_spec ~roles:(Some roles) ~initial_elements:0 ()) in
  (* With no prefill, every element a consumer removes was stolen at least
     once (directly or banked from an earlier steal's batch). *)
  let t = r.Driver.pool_totals in
  Alcotest.(check bool) "every consumed element was stolen" true
    (t.Pool.elements_stolen >= t.Pool.removes);
  let f = Driver.steal_fraction r in
  Alcotest.(check bool) "fraction in (0, 1]" true (f > 0.0 && f <= 1.0)

let test_run_trials_and_mean_of () =
  let results = Driver.run_trials ~trials:3 (quick_spec ()) in
  Alcotest.(check int) "three trials" 3 (List.length results);
  let m = Driver.mean_of (fun r -> r.Driver.op_time) results in
  Alcotest.(check bool) "mean finite" true (Float.is_finite m);
  (* Trials use distinct seeds. *)
  let durations = List.map (fun r -> r.Driver.duration) results in
  Alcotest.(check bool) "trials differ" true (List.sort_uniq compare durations = List.sort compare durations)

(* --- phased runs --- *)

let test_phases_basic () =
  let spec = quick_spec ~segments:4 ~total_ops:0 () in
  let results =
    Driver.run_phases spec
      [
        (100, Role.contiguous_producers ~participants:4 ~producers:4);
        (100, Role.uniform_mix ~participants:4 ~add_percent:50);
        (100, Role.contiguous_producers ~participants:4 ~producers:0);
      ]
  in
  (match results with
  | [ fill; stable; drain ] ->
    Alcotest.(check int) "fill: all adds" 100 fill.Driver.pool_totals.Pool.adds;
    Alcotest.(check int) "fill: no removes" 0 fill.Driver.pool_totals.Pool.removes;
    Alcotest.(check int) "fill ops" 100 fill.Driver.ops_performed;
    Alcotest.(check bool) "stable: both kinds" true
      (stable.Driver.pool_totals.Pool.adds > 0 && stable.Driver.pool_totals.Pool.removes > 0);
    Alcotest.(check int) "drain: no adds" 0 drain.Driver.pool_totals.Pool.adds;
    (* Conservation across the whole run: prefill + all adds - all removes
       equals the final phase's leftover pool. *)
    let adds r = r.Driver.pool_totals.Pool.adds and removes r = r.Driver.pool_totals.Pool.removes in
    let total_final = Array.fold_left ( + ) 0 drain.Driver.final_sizes in
    Alcotest.(check int) "conservation across phases"
      (40 + adds fill + adds stable + adds drain - removes fill - removes stable
     - removes drain)
      total_final
  | _ -> Alcotest.fail "expected three phase results")

let test_phases_empty_rejected () =
  let spec = quick_spec () in
  Alcotest.check_raises "no phases" (Invalid_argument "Driver.run_phases: no phases") (fun () ->
      ignore (Driver.run_phases spec []))

let test_phases_role_length_checked () =
  let spec = quick_spec ~segments:4 () in
  Alcotest.check_raises "phase 1 roles"
    (Invalid_argument "Driver: phase 1 needs one role per participant") (fun () ->
      ignore
        (Driver.run_phases spec
           [
             (10, Role.uniform_mix ~participants:4 ~add_percent:50);
             (10, Role.uniform_mix ~participants:3 ~add_percent:50);
           ]))

let test_phases_deterministic () =
  let run () =
    let spec = quick_spec ~segments:4 ~seed:9L () in
    Driver.run_phases spec
      [
        (150, Role.uniform_mix ~participants:4 ~add_percent:70);
        (150, Role.uniform_mix ~participants:4 ~add_percent:30);
      ]
    |> List.map (fun r -> (r.Driver.ops_performed, r.Driver.pool_totals))
  in
  Alcotest.(check bool) "reproducible" true (run () = run ())

let test_phases_single_equals_run_shape () =
  (* One phase through run_phases matches the plain run on the measured
     sample counts (totals bookkeeping differs only in pool-level counters). *)
  let spec = quick_spec ~segments:4 ~seed:21L () in
  let phased =
    List.hd
      (Driver.run_phases spec [ (400, Role.uniform_mix ~participants:4 ~add_percent:50) ])
  in
  let plain =
    Driver.run { spec with roles = Role.uniform_mix ~participants:4 ~add_percent:50 }
  in
  Alcotest.(check int) "same op count" plain.Driver.ops_performed phased.Driver.ops_performed;
  Alcotest.(check int) "same adds"
    plain.Driver.pool_totals.Pool.adds
    phased.Driver.pool_totals.Pool.adds

let per_kind name f =
  List.map
    (fun kind ->
      Alcotest.test_case (Printf.sprintf "%s (%s)" name (Cpool_intf.to_string kind)) `Quick
        (fun () -> f kind))
    Pool.all_kinds

let test_driver_kind_smoke kind =
  let roles = Role.balanced_producers ~participants:8 ~producers:3 in
  let r = Driver.run (quick_spec ~kind ~roles:(Some roles) ()) in
  Alcotest.(check bool) "ops done" true (r.Driver.ops_performed = 400);
  Alcotest.(check bool) "steal stats consistent" true
    (Sample.n r.Driver.segments_per_steal = r.Driver.pool_totals.Pool.steals)

let suites =
  [
    ( "workload.role",
      [
        Alcotest.test_case "uniform mix" `Quick test_uniform_mix;
        Alcotest.test_case "uniform mix invalid" `Quick test_uniform_mix_invalid;
        Alcotest.test_case "contiguous producers" `Quick test_contiguous;
        Alcotest.test_case "balanced producers" `Quick test_balanced;
        Alcotest.test_case "balanced extremes" `Quick test_balanced_extremes;
        Alcotest.test_case "effective mix" `Quick test_effective_mix;
        QCheck_alcotest.to_alcotest prop_balanced_distinct_positions;
      ] );
    ( "workload.driver",
      [
        Alcotest.test_case "quota honoured" `Quick test_driver_runs_quota;
        Alcotest.test_case "conservation" `Quick test_driver_conservation;
        Alcotest.test_case "sufficient mix: no steals" `Quick test_driver_sufficient_mix_no_steals;
        Alcotest.test_case "sparse mix: steals" `Quick test_driver_sparse_mix_steals;
        Alcotest.test_case "producer/consumer" `Quick test_driver_producer_consumer;
        Alcotest.test_case "all consumers abort" `Quick test_driver_all_consumers_abort;
        Alcotest.test_case "all producers" `Quick test_driver_all_producers;
        Alcotest.test_case "trace recording" `Quick test_driver_trace;
        Alcotest.test_case "no trace by default" `Quick test_driver_no_trace_by_default;
        Alcotest.test_case "deterministic" `Quick test_driver_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_driver_seeds_differ;
        Alcotest.test_case "role length checked" `Quick test_driver_role_length_checked;
        Alcotest.test_case "uncontended calibration" `Quick test_uncontended_calibration;
        Alcotest.test_case "steal fraction" `Quick test_steal_fraction;
        Alcotest.test_case "trials and averaging" `Quick test_run_trials_and_mean_of;
        Alcotest.test_case "phases: basic" `Quick test_phases_basic;
        Alcotest.test_case "phases: empty rejected" `Quick test_phases_empty_rejected;
        Alcotest.test_case "phases: role length" `Quick test_phases_role_length_checked;
        Alcotest.test_case "phases: deterministic" `Quick test_phases_deterministic;
        Alcotest.test_case "phases: single phase matches run" `Quick
          test_phases_single_equals_run_shape;
      ]
      @ per_kind "kind smoke" test_driver_kind_smoke );
  ]
