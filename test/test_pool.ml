(* Integration tests for the whole pool: local ops, steals, abort behaviour,
   conservation under concurrent workloads, per-algorithm smoke checks. *)

open Cpool_sim
open Cpool

let cfg ?(segments = 4) ?(kind = Pool.Linear) () =
  { Pool.default_config with segments; kind }

let test_local_add_remove () =
  Sim_harness.in_proc (fun () ->
      let pool = Pool.create (cfg ()) in
      Pool.join pool;
      Pool.add pool ~me:0 "x";
      (match Pool.remove pool ~me:0 with
      | Pool.Local "x" -> ()
      | _ -> Alcotest.fail "expected local removal");
      Pool.leave pool;
      let t = Pool.totals pool in
      Alcotest.(check int) "adds" 1 t.Pool.adds;
      Alcotest.(check int) "removes" 1 t.Pool.removes;
      Alcotest.(check int) "steals" 0 t.Pool.steals)

let test_remove_steals_when_local_empty () =
  Sim_harness.in_proc (fun () ->
      let pool = Pool.create (cfg ()) in
      Pool.join pool;
      Pool.prefill pool (fun i -> i) ~per_segment:0;
      (* Put 6 elements in segment 2 only. *)
      for i = 1 to 6 do
        Pool.add pool ~me:2 i
      done;
      (match Pool.remove pool ~me:0 with
      | Pool.Stolen (_, stats) ->
        Alcotest.(check int) "stole half" 3 stats.Steal.elements_stolen;
        Alcotest.(check int) "examined 0,1,2" 3 stats.Steal.segments_examined
      | _ -> Alcotest.fail "expected steal");
      (* The remainder landed in segment 0: next removes are local. *)
      Alcotest.(check int) "banked remainder" 2 (Pool.size_of_segment pool 0);
      (match Pool.remove pool ~me:0 with
      | Pool.Local _ -> ()
      | _ -> Alcotest.fail "expected local after banking");
      Pool.leave pool)

let test_remove_aborts_on_truly_empty_pool () =
  Sim_harness.in_proc (fun () ->
      let pool = Pool.create (cfg ()) in
      Pool.join pool;
      (match Pool.remove pool ~me:0 with
      | Pool.Empty _ -> ()
      | _ -> Alcotest.fail "expected abort on empty pool");
      Pool.leave pool;
      let t = Pool.totals pool in
      Alcotest.(check int) "abort counted" 1 t.Pool.aborts)

let test_prefill () =
  let pool = Pool.create (cfg ~segments:16 ()) in
  Pool.prefill pool (fun i -> i) ~per_segment:20;
  Alcotest.(check int) "320 elements" 320 (Pool.total_size pool);
  for i = 0 to 15 do
    Alcotest.(check int) (Printf.sprintf "segment %d" i) 20 (Pool.size_of_segment pool i)
  done

let test_participant_range_checked () =
  Sim_harness.in_proc (fun () ->
      let pool = Pool.create (cfg ()) in
      Alcotest.check_raises "add range" (Invalid_argument "Pool.add: participant out of range")
        (fun () -> Pool.add pool ~me:4 ());
      Alcotest.check_raises "remove range"
        (Invalid_argument "Pool.remove: participant out of range") (fun () ->
          ignore (Pool.remove pool ~me:(-1))))

let test_bad_config_rejected () =
  Alcotest.check_raises "segments" (Invalid_argument "Pool.create: segments must be positive")
    (fun () -> ignore (Pool.create (cfg ~segments:0 ())))

let test_trace_callback () =
  let events = ref [] in
  Sim_harness.in_proc (fun () ->
      let pool =
        Pool.create
          ~on_size_change:(fun ~seg ~size -> events := (seg, size) :: !events)
          (cfg ())
      in
      Pool.join pool;
      Pool.add pool ~me:1 ();
      ignore (Pool.remove pool ~me:1);
      Pool.leave pool);
  Alcotest.(check (list (pair int int))) "trace" [ (1, 1); (1, 0) ] (List.rev !events)

(* Run a concurrent workload: [n] processes, each performing [ops] random
   operations biased to [add_percent]% adds; returns the pool. *)
let concurrent_workload ?(participants = 8) ?(ops = 200) ?(add_percent = 50) ~kind ~seed () =
  let pool = ref None in
  let _ =
    Sim_harness.run_procs ~nodes:participants ~seed participants (fun i ->
        let p =
          match !pool with
          | Some p -> p
          | None ->
            let p = Pool.create (cfg ~segments:participants ~kind ()) in
            Pool.prefill p (fun j -> j) ~per_segment:5;
            pool := Some p;
            p
        in
        Pool.join p;
        for _ = 1 to ops do
          if Engine.random_int 100 < add_percent then Pool.add p ~me:i (Engine.random_int 1000)
          else ignore (Pool.remove p ~me:i)
        done;
        Pool.leave p)
  in
  Option.get !pool

let test_conservation kind () =
  let pool = concurrent_workload ~kind ~seed:11L () in
  let t = Pool.totals pool in
  let expected = (8 * 5) + t.Pool.adds - t.Pool.removes in
  Alcotest.(check int) "size = prefill + adds - removes" expected (Pool.total_size pool);
  Alcotest.(check bool) "ops happened" true (t.Pool.adds > 0 && t.Pool.removes > 0)

let test_sparse_mix_steals kind () =
  (* 30% adds forces steals for every algorithm. *)
  let pool = concurrent_workload ~add_percent:30 ~kind ~seed:13L () in
  let t = Pool.totals pool in
  Alcotest.(check bool) "steals happened" true (t.Pool.steals > 0);
  Alcotest.(check bool) "stats consistent" true
    (t.Pool.elements_stolen >= t.Pool.steals && t.Pool.segments_examined >= t.Pool.steals)

let test_sufficient_local_only () =
  (* A process that alternates add/remove never needs to steal. *)
  Sim_harness.in_proc (fun () ->
      let pool = Pool.create (cfg ()) in
      Pool.join pool;
      for i = 1 to 50 do
        Pool.add pool ~me:0 i;
        match Pool.remove pool ~me:0 with
        | Pool.Local _ -> ()
        | _ -> Alcotest.fail "expected all-local traffic"
      done;
      Pool.leave pool;
      Alcotest.(check int) "no steals" 0 (Pool.totals pool).Pool.steals)

let test_all_consumers_abort_cleanly kind () =
  (* Pool with a few elements, all processes only remove: once drained,
     every process must abort (not deadlock) and the run completes. *)
  let pool = ref None in
  let _ =
    Sim_harness.run_procs ~nodes:4 ~seed:17L 4 (fun i ->
        let p =
          match !pool with
          | Some p -> p
          | None ->
            let p = Pool.create (cfg ~kind ()) in
            Pool.prefill p (fun j -> j) ~per_segment:2;
            pool := Some p;
            p
        in
        Pool.join p;
        let aborted = ref false in
        while not !aborted do
          match Pool.remove p ~me:i with
          | Pool.Empty _ -> aborted := true
          | Pool.Local _ | Pool.Stolen _ -> ()
        done;
        Pool.leave p)
  in
  let p = Option.get !pool in
  Alcotest.(check int) "fully drained" 0 (Pool.total_size p);
  Alcotest.(check int) "8 removes" 8 (Pool.totals p).Pool.removes;
  Alcotest.(check int) "4 aborts" 4 (Pool.totals p).Pool.aborts

let test_deterministic_runs () =
  let run () =
    let pool = concurrent_workload ~add_percent:40 ~kind:Pool.Tree ~seed:23L () in
    Pool.totals pool
  in
  Alcotest.(check bool) "identical totals" true (run () = run ())

let prop_conservation_all_kinds =
  QCheck.Test.make ~name:"pool conserves elements for every algorithm and mix" ~count:40
    QCheck.(triple (int_range 0 100) (int_range 1 12) (int_range 0 2))
    (fun (add_percent, participants, kind_idx) ->
      let kind = List.nth Pool.all_kinds kind_idx in
      let pool =
        concurrent_workload ~participants ~ops:60 ~add_percent ~kind
          ~seed:(Int64.of_int (add_percent + (participants * 1000)))
          ()
      in
      let t = Pool.totals pool in
      Pool.total_size pool = (participants * 5) + t.Pool.adds - t.Pool.removes)

let per_kind name f =
  List.map
    (fun kind ->
      Alcotest.test_case (Printf.sprintf "%s (%s)" name (Cpool_intf.to_string kind)) `Quick (f kind))
    Pool.all_kinds

(* The simulator experiments iterate [Pool.all_kinds] and label rows with
   [Cpool_intf.to_string]; they rely on it being the paper's three
   algorithms, without the [Hinted] extension that [Cpool_intf.all] adds. *)
let test_all_kinds_are_the_papers () =
  Alcotest.(check (list string))
    "paper kinds" [ "linear"; "random"; "tree" ]
    (List.map Cpool_intf.to_string Pool.all_kinds);
  Alcotest.(check bool) "a prefix of Cpool_intf.all" true
    (List.filteri (fun i _ -> i < 3) Cpool_intf.all = Pool.all_kinds)

let suites =
  [
    ( "pool",
      [
        Alcotest.test_case "local add/remove" `Quick test_local_add_remove;
        Alcotest.test_case "steal when local empty" `Quick test_remove_steals_when_local_empty;
        Alcotest.test_case "abort on empty pool" `Quick test_remove_aborts_on_truly_empty_pool;
        Alcotest.test_case "prefill" `Quick test_prefill;
        Alcotest.test_case "participant range" `Quick test_participant_range_checked;
        Alcotest.test_case "bad config" `Quick test_bad_config_rejected;
        Alcotest.test_case "trace callback" `Quick test_trace_callback;
        Alcotest.test_case "sufficient mix stays local" `Quick test_sufficient_local_only;
        Alcotest.test_case "deterministic totals" `Quick test_deterministic_runs;
      ]
      @ per_kind "conservation" test_conservation
      @ per_kind "sparse mix steals" test_sparse_mix_steals
      @ per_kind "drain aborts cleanly" test_all_consumers_abort_cleanly
      @ [
          QCheck_alcotest.to_alcotest prop_conservation_all_kinds;
          Alcotest.test_case "all_kinds is the paper's three" `Quick
            test_all_kinds_are_the_papers;
        ] );
  ]
