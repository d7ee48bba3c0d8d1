(* Tests for capacity-bounded segments and pools (the paper's footnote:
   adds that meet a full segment spill "in a symmetric fashion" to a
   segment with spare capacity). *)

open Cpool

let bounded_cfg ?(segments = 4) ?(kind = Pool.Linear) ~capacity () =
  { Pool.default_config with segments; kind; capacity = Some capacity }

let test_segment_capacity_validated () =
  Alcotest.check_raises "zero" (Invalid_argument "Segment.make: capacity must be positive")
    (fun () -> ignore (Segment.make ~capacity:0 ~home:0 ~id:0 Segment.Counting : unit Segment.t))

let test_segment_try_add_respects_capacity () =
  Sim_harness.in_proc (fun () ->
      let s = Segment.make ~capacity:2 ~home:0 ~id:0 Segment.Counting in
      Alcotest.(check bool) "first" true (Segment.try_add s 1);
      Alcotest.(check bool) "second" true (Segment.try_add s 2);
      Alcotest.(check bool) "third refused" false (Segment.try_add s 3);
      Alcotest.(check int) "size capped" 2 (Segment.size_free s);
      ignore (Segment.try_remove s);
      Alcotest.(check bool) "room again" true (Segment.try_add s 4))

let test_segment_probe_spare () =
  Sim_harness.in_proc (fun () ->
      let bounded = Segment.make ~capacity:3 ~home:0 ~id:0 Segment.Counting in
      let unbounded = Segment.make ~home:0 ~id:1 Segment.Counting in
      Alcotest.(check int) "fresh spare" 3 (Segment.probe_spare bounded);
      Segment.add bounded ();
      Alcotest.(check int) "one used" 2 (Segment.probe_spare bounded);
      Alcotest.(check int) "unbounded" max_int (Segment.probe_spare unbounded))

let test_segment_steal_max_take () =
  Sim_harness.in_proc (fun () ->
      let s = Segment.make ~home:0 ~id:0 Segment.Counting in
      for i = 1 to 10 do
        Segment.prefill_one s i
      done;
      (match Segment.steal_half ~max_take:2 s with
      | Steal.Batch (_, rest) -> Alcotest.(check int) "capped at 2" 1 (List.length rest)
      | _ -> Alcotest.fail "expected batch");
      Alcotest.(check int) "victim keeps the rest" 8 (Segment.size_free s);
      Alcotest.check_raises "max_take >= 1"
        (Invalid_argument "Segment.steal_half: max_take must be >= 1") (fun () ->
          ignore (Segment.steal_half ~max_take:0 s)))

let test_pool_add_spills () =
  Sim_harness.in_proc (fun () ->
      let pool = Pool.create (bounded_cfg ~capacity:2 ()) in
      Pool.join pool;
      (* Fill segment 0, then the third add must spill to segment 1. *)
      Alcotest.(check bool) "local 1" true (Pool.add_bounded pool ~me:0 1 = Pool.Added_locally);
      Alcotest.(check bool) "local 2" true (Pool.add_bounded pool ~me:0 2 = Pool.Added_locally);
      (match Pool.add_bounded pool ~me:0 3 with
      | Pool.Spilled 1 -> ()
      | Pool.Spilled n -> Alcotest.failf "spilled to %d, expected 1" n
      | _ -> Alcotest.fail "expected spill");
      Alcotest.(check int) "segment 1 got it" 1 (Pool.size_of_segment pool 1);
      let t = Pool.totals pool in
      Alcotest.(check int) "spills counted" 1 t.Pool.spills;
      Alcotest.(check int) "adds counted" 3 t.Pool.adds;
      Pool.leave pool)

let test_pool_add_rejects_when_full () =
  Sim_harness.in_proc (fun () ->
      let pool = Pool.create (bounded_cfg ~segments:2 ~capacity:1 ()) in
      Pool.join pool;
      ignore (Pool.add_bounded pool ~me:0 1);
      ignore (Pool.add_bounded pool ~me:0 2);
      Alcotest.(check bool) "rejected" true (Pool.add_bounded pool ~me:0 3 = Pool.Rejected);
      Alcotest.(check int) "rejects counted" 1 (Pool.totals pool).Pool.rejected_adds;
      Alcotest.(check int) "nothing inserted" 2 (Pool.total_size pool);
      (* The raising variant. *)
      (match Pool.add pool ~me:0 4 with
      | exception Failure _ -> ()
      | () -> Alcotest.fail "expected Failure");
      Pool.leave pool)

let test_pool_unbounded_never_spills () =
  Sim_harness.in_proc (fun () ->
      let pool = Pool.create { Pool.default_config with segments = 2 } in
      Pool.join pool;
      for i = 1 to 100 do
        Alcotest.(check bool) "local" true (Pool.add_bounded pool ~me:0 i = Pool.Added_locally)
      done;
      Pool.leave pool)

let test_steal_capped_by_spare kind () =
  Sim_harness.in_proc (fun () ->
      let pool = Pool.create (bounded_cfg ~kind ~capacity:4 ()) in
      Pool.join pool;
      (* Victim holds 4 (its full capacity); the thief is empty with spare
         4, so an uncapped steal of ceil(4/2)=2 fits anyway; make the
         thief nearly full to force the cap. *)
      for i = 1 to 4 do
        Pool.prefill_segment pool ~seg:2 i
      done;
      for i = 1 to 3 do
        Pool.prefill_segment pool ~seg:0 (100 + i)
      done;
      (* Drain our 3 local ones, then the next remove steals: spare is 4-0=4
         after draining... fill again to leave spare = 1. *)
      for _ = 1 to 3 do
        ignore (Pool.remove pool ~me:0)
      done;
      for i = 1 to 3 do
        ignore (Pool.add_bounded pool ~me:0 (200 + i))
      done;
      for _ = 1 to 3 do
        ignore (Pool.remove pool ~me:0)
      done;
      (* Now empty with spare 4: steal caps at min(ceil(4/2), 4+1) = 2. *)
      (match Pool.remove pool ~me:0 with
      | Pool.Stolen (_, stats) ->
        Alcotest.(check bool) "take within cap" true (stats.Steal.elements_stolen <= 5)
      | _ -> Alcotest.fail "expected steal");
      Pool.leave pool)

let test_bounded_conservation kind () =
  (* Random traffic on a tightly bounded pool conserves elements:
     total = adds - removes, with rejects not inserted. *)
  let total = 4 in
  let pool = ref None in
  let _ =
    Sim_harness.run_procs ~nodes:total ~seed:31L total (fun i ->
        let p =
          match !pool with
          | Some p -> p
          | None ->
            let p = Pool.create (bounded_cfg ~segments:total ~kind ~capacity:5 ()) in
            pool := Some p;
            p
        in
        Pool.join p;
        for k = 1 to 120 do
          if k land 3 <> 0 then ignore (Pool.add_bounded p ~me:i k)
          else ignore (Pool.remove p ~me:i)
        done;
        Pool.leave p)
  in
  let p = Option.get !pool in
  let t = Pool.totals p in
  Alcotest.(check int) "conservation" (t.Pool.adds - t.Pool.removes) (Pool.total_size p);
  Alcotest.(check bool) "pressure caused spills or rejects" true
    (t.Pool.spills > 0 || t.Pool.rejected_adds > 0);
  Alcotest.(check bool) "capacity never exceeded by adds" true (Pool.total_size p <= total * 5 + 8)

let per_kind name f =
  List.map
    (fun kind ->
      Alcotest.test_case (Printf.sprintf "%s (%s)" name (Cpool_intf.to_string kind)) `Quick (f kind))
    Pool.all_kinds

let suites =
  [
    ( "bounded",
      [
        Alcotest.test_case "capacity validated" `Quick test_segment_capacity_validated;
        Alcotest.test_case "try_add respects capacity" `Quick test_segment_try_add_respects_capacity;
        Alcotest.test_case "probe_spare" `Quick test_segment_probe_spare;
        Alcotest.test_case "steal max_take" `Quick test_segment_steal_max_take;
        Alcotest.test_case "add spills" `Quick test_pool_add_spills;
        Alcotest.test_case "add rejects when full" `Quick test_pool_add_rejects_when_full;
        Alcotest.test_case "unbounded never spills" `Quick test_pool_unbounded_never_spills;
      ]
      @ per_kind "steal capped by spare" test_steal_capped_by_spare
      @ per_kind "bounded conservation" test_bounded_conservation );
  ]
