(* Tests for the multicore (OCaml 5 domains) concurrent pool. *)

open Cpool_mc

let kinds =
  [
    ("linear", Mc_pool.Linear);
    ("random", Mc_pool.Random);
    ("tree", Mc_pool.Tree);
    ("hinted", Mc_pool.Hinted);
  ]

(* --- Single-domain semantics --- *)

let test_create_invalid () =
  Alcotest.check_raises "segments"
    (Invalid_argument "Mc_pool.of_config: segments must be positive")
    (fun () -> ignore (Mc_pool.of_config { Mc_pool.Config.default with segments = 0 } : unit Mc_pool.t))

let test_register_slots () =
  let pool : int Mc_pool.t = Mc_pool.of_config { Mc_pool.Config.default with segments = 2 } in
  let h0 = Mc_pool.register pool in
  let h1 = Mc_pool.register pool in
  Alcotest.(check int) "first slot" 0 (Mc_pool.slot h0);
  Alcotest.(check int) "second slot" 1 (Mc_pool.slot h1);
  (match Mc_pool.register pool with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected registration failure");
  Alcotest.(check int) "segments" 2 (Mc_pool.segments pool)

let test_register_at () =
  let pool : int Mc_pool.t = Mc_pool.of_config { Mc_pool.Config.default with segments = 3 } in
  let h2 = Mc_pool.register_at pool 2 in
  Alcotest.(check int) "explicit slot" 2 (Mc_pool.slot h2);
  Alcotest.check_raises "reclaim" (Invalid_argument "Mc_pool.register_at: slot already claimed")
    (fun () -> ignore (Mc_pool.register_at pool 2));
  (* register skips the claimed slot *)
  Alcotest.(check int) "register skips" 0 (Mc_pool.slot (Mc_pool.register pool))

let test_local_roundtrip () =
  let pool = Mc_pool.of_config { Mc_pool.Config.default with segments = 2 } in
  let h = Mc_pool.register pool in
  Mc_pool.add pool h "a";
  Mc_pool.add pool h "b";
  Alcotest.(check int) "size" 2 (Mc_pool.size pool);
  Alcotest.(check (option string)) "fifo" (Some "a") (Mc_pool.try_remove_local pool h);
  Alcotest.(check (option string)) "next" (Some "b") (Mc_pool.try_remove_local pool h);
  Alcotest.(check (option string)) "empty" None (Mc_pool.try_remove_local pool h)

let test_steal_across_slots kind () =
  let pool = Mc_pool.of_config { Mc_pool.Config.default with kind; segments = 4 } in
  let h0 = Mc_pool.register_at pool 0 in
  let h2 = Mc_pool.register_at pool 2 in
  for i = 1 to 8 do
    Mc_pool.add pool h2 i
  done;
  (match Mc_pool.try_remove pool h0 with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a stolen element");
  Alcotest.(check int) "one steal" 1 (Mc_pool.steals pool);
  Alcotest.(check int) "conserved" 7 (Mc_pool.size pool)

let test_remove_confirms_empty kind () =
  let pool : int Mc_pool.t = Mc_pool.of_config { Mc_pool.Config.default with kind; segments = 3 } in
  let h = Mc_pool.register pool in
  Alcotest.(check bool) "empty pool" true (Mc_pool.remove pool h = None);
  Mc_pool.add pool h 7;
  Alcotest.(check (option int)) "element back" (Some 7) (Mc_pool.remove pool h)

let test_try_remove_nonblocking kind () =
  let pool : int Mc_pool.t = Mc_pool.of_config { Mc_pool.Config.default with kind; segments = 4 } in
  let h = Mc_pool.register pool in
  Alcotest.(check (option int)) "nothing" None (Mc_pool.try_remove pool h)

(* --- Multi-domain stress --- *)

let test_conservation_under_domains kind () =
  (* 4 domains, each adds [per] elements and removes [per] elements; at the
     end the pool must be exactly empty and every element consumed once. *)
  let domains = 4 and per = 2_000 in
  let pool = Mc_pool.of_config { Mc_pool.Config.default with kind; segments = domains } in
  let consumed = Array.make domains 0 in
  let spawn i =
    Domain.spawn (fun () ->
        let h = Mc_pool.register_at pool i in
        for k = 1 to per do
          Mc_pool.add pool h ((i * per) + k);
          if k land 1 = 0 then begin
            (* Interleave removes to force stealing traffic. *)
            match Mc_pool.remove pool h with
            | Some _ -> consumed.(i) <- consumed.(i) + 1
            | None -> ()
          end
        done;
        let rec drain () =
          match Mc_pool.remove pool h with
          | Some _ ->
            consumed.(i) <- consumed.(i) + 1;
            drain ()
          | None -> ()
        in
        drain ();
        Mc_pool.deregister pool h)
  in
  let ds = List.init domains spawn in
  List.iter Domain.join ds;
  Alcotest.(check int) "pool drained" 0 (Mc_pool.size pool);
  Alcotest.(check int) "every element consumed exactly once" (domains * per)
    (Array.fold_left ( + ) 0 consumed)

let test_producer_consumer_domains kind () =
  (* 2 producers push, 2 consumers pull; totals must match. *)
  let per = 5_000 in
  let pool = Mc_pool.of_config { Mc_pool.Config.default with kind; segments = 4 } in
  let eaten = Atomic.make 0 in
  (* Register every worker before any domain starts, so a fast consumer
     cannot observe "all registered workers searching" while a producer is
     still booting. *)
  let handles = Array.init 4 (Mc_pool.register_at pool) in
  let producers =
    List.init 2 (fun i ->
        Domain.spawn (fun () ->
            let h = handles.(i) in
            for k = 1 to per do
              Mc_pool.add pool h k
            done;
            Mc_pool.deregister pool h))
  in
  let consumers =
    List.init 2 (fun i ->
        Domain.spawn (fun () ->
            let h = handles.(2 + i) in
            let rec eat () =
              match Mc_pool.remove pool h with
              | Some _ ->
                Atomic.incr eaten;
                eat ()
              | None -> ()
            in
            eat ();
            Mc_pool.deregister pool h))
  in
  List.iter Domain.join producers;
  List.iter Domain.join consumers;
  (* Consumers exit only when all *registered* workers are searching; the
     producers never search, so consumers drain everything the producers
     made before both become the only active parties. Whatever remains
     unconsumed must still be in the pool. *)
  Alcotest.(check int) "conservation" (2 * per) (Atomic.get eaten + Mc_pool.size pool);
  Alcotest.(check bool) "stealing happened" true (Mc_pool.steals pool > 0)

let test_work_generating_workload kind () =
  (* Task-graph shape: each element may spawn children; all domains run
     until global quiescence, which [remove] detects as None. *)
  let pool = Mc_pool.of_config { Mc_pool.Config.default with kind; segments = 4 } in
  let produced = Atomic.make 0 in
  let processed = Atomic.make 0 in
  let seed_handle = Mc_pool.register_at pool 0 in
  Mc_pool.add pool seed_handle 12;
  Atomic.incr produced;
  let worker i =
    Domain.spawn (fun () ->
        let h = if i = 0 then seed_handle else Mc_pool.register_at pool i in
        let rec go () =
          match Mc_pool.remove pool h with
          | Some depth ->
            Atomic.incr processed;
            if depth > 0 then begin
              (* Two children per task: a small binary task tree. *)
              Mc_pool.add pool h (depth - 1);
              Mc_pool.add pool h (depth - 1);
              Atomic.incr produced;
              Atomic.incr produced
            end;
            go ()
          | None -> ()
        in
        go ();
        Mc_pool.deregister pool h)
  in
  let ds = List.init 4 worker in
  List.iter Domain.join ds;
  Alcotest.(check int) "all tasks processed" (Atomic.get produced) (Atomic.get processed);
  Alcotest.(check int) "binary tree of depth 12" ((2 lsl 12) - 1) (Atomic.get processed);
  Alcotest.(check int) "pool empty" 0 (Mc_pool.size pool)

(* --- Lifecycle: slot release, churn, deregister-during-drain --- *)

let test_deregister_releases_slot () =
  let pool : int Mc_pool.t = Mc_pool.of_config { Mc_pool.Config.default with segments = 2 } in
  let h0 = Mc_pool.register pool in
  let _h1 = Mc_pool.register pool in
  Alcotest.(check int) "both claimed" 2 (Mc_pool.claimed_count pool);
  Mc_pool.deregister pool h0;
  Alcotest.(check int) "slot released" 1 (Mc_pool.claimed_count pool);
  let h0' = Mc_pool.register pool in
  Alcotest.(check int) "freed slot reused" 0 (Mc_pool.slot h0')

let test_double_deregister_rejected () =
  let pool : int Mc_pool.t = Mc_pool.of_config { Mc_pool.Config.default with segments = 1 } in
  let h = Mc_pool.register pool in
  Mc_pool.deregister pool h;
  Alcotest.check_raises "double deregister"
    (Invalid_argument "Mc_pool.deregister: handle already deregistered") (fun () ->
      Mc_pool.deregister pool h)

let test_register_deregister_churn () =
  (* Regression for the slot leak: the seed version never cleared
     [claimed] on deregister, so the second cycle here already failed with
     "all slots claimed". *)
  let pool : int Mc_pool.t = Mc_pool.of_config { Mc_pool.Config.default with segments = 2 } in
  let keeper = Mc_pool.register pool in
  for i = 1 to 1_000 do
    let h = Mc_pool.register pool in
    Mc_pool.add pool h i;
    (match Mc_pool.try_remove pool h with
    | Some _ -> ()
    | None -> Alcotest.fail "churn cycle lost its element");
    Mc_pool.deregister pool h
  done;
  Alcotest.(check int) "only the keeper remains" 1 (Mc_pool.claimed_count pool);
  Alcotest.(check int) "registered count back to one" 1 (Mc_pool.registered pool);
  Alcotest.(check int) "pool empty" 0 (Mc_pool.size pool);
  Mc_pool.deregister pool keeper;
  Alcotest.(check int) "all slots free" 0 (Mc_pool.claimed_count pool)

let test_concurrent_churn () =
  (* Four domains cycle registration concurrently on a shared pool; the
     registration mutex must keep claims exact and leak-free. *)
  let cycles = 250 in
  let pool : int Mc_pool.t = Mc_pool.of_config { Mc_pool.Config.default with segments = 8 } in
  let ds =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to cycles do
              let h = Mc_pool.register pool in
              Mc_pool.add pool h ((d * cycles) + i);
              (match Mc_pool.try_remove pool h with
              | Some _ -> ()
              | None -> failwith "lost element under churn");
              Mc_pool.deregister pool h
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "no claimed slots leak" 0 (Mc_pool.claimed_count pool);
  Alcotest.(check int) "no registered workers leak" 0 (Mc_pool.registered pool);
  Alcotest.(check bool) "segments consistent" true (Mc_pool.check_segments pool)

let test_deregister_while_draining kind () =
  (* The termination protocol under deregistration: two drainers block in
     [remove] while a third registered worker sits idle — searching (2) <
     registered (3), so neither drainer may conclude the pool empty. Once
     the idle worker deregisters, searching >= registered and both must
     return None. A regression here either hangs (None never concluded) or
     loses elements (None concluded too early). *)
  let elements = 500 in
  let pool : int Mc_pool.t = Mc_pool.of_config { Mc_pool.Config.default with kind; segments = 4 } in
  let producer = Mc_pool.register_at pool 0 in
  for i = 1 to elements do
    Mc_pool.add pool producer i
  done;
  let eaten = Atomic.make 0 in
  let drainers =
    List.init 2 (fun i ->
        Domain.spawn (fun () ->
            let h = Mc_pool.register_at pool (1 + i) in
            let rec eat () =
              match Mc_pool.remove pool h with
              | Some _ ->
                Atomic.incr eaten;
                eat ()
              | None -> ()
            in
            eat ();
            Mc_pool.deregister pool h))
  in
  (* Let the drainers reach the spin loop with a drained pool, then retire
     the idle producer mid-drain. *)
  while Mc_pool.size pool > 0 do
    Domain.cpu_relax ()
  done;
  Mc_pool.deregister pool producer;
  List.iter Domain.join drainers;
  Alcotest.(check int) "every element consumed exactly once" elements (Atomic.get eaten);
  Alcotest.(check int) "no one left registered" 0 (Mc_pool.registered pool);
  Alcotest.(check int) "no claimed slots leak" 0 (Mc_pool.claimed_count pool)

(* --- Telemetry --- *)

let test_stats_counters () =
  let pool : int Mc_pool.t = Mc_pool.of_config { Mc_pool.Config.default with segments = 2 } in
  let h0 = Mc_pool.register_at pool 0 in
  let h1 = Mc_pool.register_at pool 1 in
  for i = 1 to 4 do
    Mc_pool.add pool h0 i
  done;
  (match Mc_pool.try_remove_local pool h0 with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a local remove");
  (* h1 is empty: this remove must steal 2 of h0's remaining 3 elements. *)
  (match Mc_pool.try_remove pool h1 with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a steal");
  let c0 = Mc_stats.counters (Mc_pool.stats_of_handle h0) in
  let c1 = Mc_stats.counters (Mc_pool.stats_of_handle h1) in
  Alcotest.(check int) "h0 adds" 4 (Cpool_metrics.Counters.get c0 "adds");
  Alcotest.(check int) "h0 local removes" 1 (Cpool_metrics.Counters.get c0 "local removes");
  Alcotest.(check int) "h1 made no adds" 0 (Cpool_metrics.Counters.get c1 "adds");
  Alcotest.(check int) "h1 steals" 1 (Cpool_metrics.Counters.get c1 "steals");
  Alcotest.(check int) "h1 stole two elements" 2
    (Cpool_metrics.Counters.get c1 "elements stolen");
  let segs = Mc_stats.segments_per_steal (Mc_pool.stats_of_handle h1) in
  Alcotest.(check int) "one steal in the distribution" 1 (Cpool_metrics.Sample.n segs);
  (* The linear pass examined h1's own (empty) segment, then stole from
     segment 0: two segments examined for this steal. *)
  Alcotest.(check (float 1e-9)) "segments examined for it" 2.0 (Cpool_metrics.Sample.mean segs);
  Alcotest.(check (float 1e-9)) "mean elements per steal" 2.0
    (Mc_stats.mean_elements_per_steal (Mc_pool.stats_of_handle h1))

let test_stats_survive_churn () =
  (* Pool-level stats merge every handle ever issued, so totals are
     conserved across register/deregister churn. *)
  let pool : int Mc_pool.t = Mc_pool.of_config { Mc_pool.Config.default with segments = 2 } in
  for i = 1 to 10 do
    let h = Mc_pool.register pool in
    Mc_pool.add pool h i;
    ignore (Mc_pool.try_remove pool h : int option);
    Mc_pool.deregister pool h
  done;
  let merged = Mc_pool.stats pool in
  let c = Mc_stats.counters merged in
  Alcotest.(check int) "adds accumulated" 10 (Cpool_metrics.Counters.get c "adds");
  Alcotest.(check int) "removes accumulated" 10 (Mc_stats.removes merged)

let test_stats_render () =
  let pool : int Mc_pool.t = Mc_pool.of_config { Mc_pool.Config.default with segments = 1 } in
  let h = Mc_pool.register pool in
  Mc_pool.add pool h 1;
  ignore (Mc_pool.try_remove_local pool h : int option);
  let table =
    Mc_stats.render_table [ ("d0", Mc_pool.stats_of_handle h); ("d1", Mc_stats.create ()) ]
  in
  Alcotest.(check bool) "has per-worker row" true
    (String.length table > 0 && String.sub table 0 6 = "worker");
  Alcotest.(check bool) "has total row" true
    (List.exists
       (fun l -> String.length l >= 5 && String.sub l 0 5 = "TOTAL")
       (String.split_on_char '\n' table))

(* --- The stress harness itself (smoke) --- *)

let test_stress_harness kind () =
  let cfg =
    {
      Mc_stress.default with
      Mc_stress.domains = 4;
      kind;
      capacity = Some 16;
      workload =
        { Cpool_intf.Workload.default with duration_s = 0.05; initial = 8 };
    }
  in
  let r = Mc_stress.run cfg in
  Alcotest.(check (list string)) "no invariant violations" [] r.Mc_stress.violations;
  Alcotest.(check bool) "did some work" true (r.Mc_stress.ops > 0);
  Alcotest.(check bool) "renders" true (String.length (Mc_stress.render r) > 0)

(* --- Hinted hand-off --- *)

let test_kind_round_trip () =
  List.iter
    (fun k ->
      let s = Cpool_intf.to_string k in
      match Cpool_intf.of_string s with
      | Ok k' -> Alcotest.(check bool) (s ^ " round-trips") true (k = k')
      | Error e -> Alcotest.fail e)
    Cpool_intf.all;
  (match Cpool_intf.of_string "HINTED" with
  | Ok Mc_pool.Hinted -> ()
  | _ -> Alcotest.fail "of_string must be case-insensitive");
  match Cpool_intf.of_string "bogus" with
  | Ok _ -> Alcotest.fail "expected an error for an unknown kind"
  | Error msg ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
      at 0
    in
    let mentions_valid = contains msg "valid kinds" in
    Alcotest.(check bool) "error lists the valid kinds" true mentions_valid

let test_hinted_remove_none_on_quiescence () =
  (* A lone registered searcher on an empty hinted pool must abort with
     None (not park forever), and the abort must leave the hint board fully
     retracted: published = claimed + expired. *)
  let pool : int Mc_pool.t = Mc_pool.of_config { Mc_pool.Config.default with kind = Mc_pool.Hinted; segments = 4 } in
  let h = Mc_pool.register pool in
  Alcotest.(check (option int)) "empty pool" None (Mc_pool.remove pool h);
  Mc_pool.add pool h 7;
  Alcotest.(check (option int)) "element back" (Some 7) (Mc_pool.remove pool h);
  Alcotest.(check (option int)) "empty again" None (Mc_pool.remove pool h);
  let s = Mc_pool.stats pool in
  Alcotest.(check int) "board settled: published = claimed + expired"
    (Mc_stats.hints_published s)
    (Mc_stats.hints_claimed s + Mc_stats.hints_expired s);
  Mc_pool.deregister pool h

let test_hinted_quiescence_under_domains () =
  (* Two domains both hunting an empty pool: each must see the other as
     "searching empty" (parked counts) and abort, rather than deadlock. *)
  let pool : int Mc_pool.t = Mc_pool.of_config { Mc_pool.Config.default with kind = Mc_pool.Hinted; segments = 2 } in
  let handles = Array.init 2 (Mc_pool.register_at pool) in
  let ds =
    List.init 2 (fun i ->
        Domain.spawn (fun () ->
            let r = Mc_pool.remove pool handles.(i) in
            Mc_pool.deregister pool handles.(i);
            r))
  in
  List.iter
    (fun d -> Alcotest.(check (option int)) "abort on empty" None (Domain.join d))
    ds

let test_hinted_parked_searcher_woken () =
  (* The tentpole scenario: a consumer parks on the hint board, a remote
     producer's add claims the hint and deposits straight into the
     consumer's segment. Repeat enough rounds that at least one add lands
     while the searcher is parked. *)
  let rounds = 20 in
  let pool : int Mc_pool.t = Mc_pool.of_config { Mc_pool.Config.default with kind = Mc_pool.Hinted; segments = 2 } in
  let h0 = Mc_pool.register_at pool 0 in
  let h1 = Mc_pool.register_at pool 1 in
  let got = Atomic.make 0 in
  let consumer =
    Domain.spawn (fun () ->
        for _ = 1 to rounds do
          match Mc_pool.remove pool h0 with
          | Some _ -> Atomic.incr got
          | None -> ()
        done;
        Mc_pool.deregister pool h0)
  in
  for k = 1 to rounds do
    (* Give the searcher time to publish a hint before adding, so the add
       exercises the claim-and-deliver path; the bound keeps the test from
       hanging if the searcher is between publications. *)
    let rec await i =
      if
        i < 2_000
        && Atomic.get got < k
        && Mc_stats.hints_published (Mc_pool.stats pool) < k
      then begin
        Unix.sleepf 1e-4;
        await (i + 1)
      end
    in
    await 0;
    Mc_pool.add pool h1 k
  done;
  Domain.join consumer;
  Alcotest.(check int) "every remove satisfied" rounds (Atomic.get got);
  let s = Mc_pool.stats pool in
  Alcotest.(check bool) "hints were published" true (Mc_stats.hints_published s >= 1);
  Alcotest.(check bool) "at least one hand-off delivered" true
    (Mc_stats.hints_delivered s >= 1);
  Alcotest.(check bool) "delivered <= claimed" true
    (Mc_stats.hints_delivered s <= Mc_stats.hints_claimed s);
  Mc_pool.deregister pool h1

let test_hinted_sparse_stress_cell () =
  (* A sparse mix (35% adds) keeps searchers hungry, so the hint board is
     exercised under churn; the harness checks conservation, capacity and
     the hint accounting identities after the run. *)
  let cfg =
    {
      Mc_stress.default with
      Mc_stress.domains = 4;
      kind = Mc_pool.Hinted;
      workload =
        {
          Cpool_intf.Workload.default with
          mix = 0.35;
          duration_s = 0.1;
          initial = 8;
        };
    }
  in
  let r = Mc_stress.run cfg in
  Alcotest.(check (list string)) "no invariant violations" [] r.Mc_stress.violations;
  Alcotest.(check bool) "did some work" true (r.Mc_stress.ops > 0)

let per_kind name f = List.map (fun (kn, k) -> Alcotest.test_case (name ^ " (" ^ kn ^ ")") `Quick (f k)) kinds

(* [of_config] is the one constructor: the default record gives an
   unbounded, untraced Linear pool with no topology, and every field of a
   non-default record reaches the pool. *)
let test_of_config_defaults () =
  let pool : int Mc_pool.t = Mc_pool.of_config { Mc_pool.Config.default with segments = 3 } in
  Alcotest.(check int) "segments" 3 (Mc_pool.segments pool);
  Alcotest.(check bool) "default kind" true (Mc_pool.kind pool = Mc_pool.Linear);
  Alcotest.(check bool) "no topology" true (Mc_pool.topology pool = None);
  Alcotest.(check bool) "untraced" false (Mc_pool.tracing pool);
  let h = Mc_pool.register pool in
  for i = 1 to 100 do
    Alcotest.(check bool) "unbounded" true (Mc_pool.try_add pool h i)
  done;
  Alcotest.(check int) "all stored" 100 (Mc_pool.size pool);
  Mc_pool.deregister pool h

let test_of_config_forwards_every_field () =
  let topo = Cpool_topology.two_group ~nodes:2 () in
  let pool : int Mc_pool.t =
    Mc_pool.of_config
      {
        Mc_pool.Config.default with
        kind = Mc_pool.Hinted;
        seed = 9L;
        capacity = Some 4;
        trace = true;
        segments = 2;
        topology = Some topo;
        topology_aware = false;
      }
  in
  Alcotest.(check bool) "kind" true (Mc_pool.kind pool = Mc_pool.Hinted);
  Alcotest.(check bool) "trace" true (Mc_pool.tracing pool);
  Alcotest.(check bool) "topology" true (Mc_pool.topology pool = Some topo);
  Alcotest.(check bool) "topology_aware" false (Mc_pool.topology_aware pool);
  let h = Mc_pool.register_at pool 0 in
  (* capacity is per segment: 2 segments x 4 fit, the 9th add bounces. *)
  for i = 1 to 8 do
    Alcotest.(check bool) "fits in capacity" true (Mc_pool.try_add pool h i)
  done;
  Alcotest.(check bool) "capacity" false (Mc_pool.try_add pool h 9);
  Mc_pool.deregister pool h

let main_suites =
  [
    ( "mcpool",
      [
        Alcotest.test_case "kind round-trip" `Quick test_kind_round_trip;
        Alcotest.test_case "hinted: None on quiescence" `Quick
          test_hinted_remove_none_on_quiescence;
        Alcotest.test_case "hinted: quiescence under domains" `Quick
          test_hinted_quiescence_under_domains;
        Alcotest.test_case "hinted: parked searcher woken by remote add" `Quick
          test_hinted_parked_searcher_woken;
        Alcotest.test_case "hinted: sparse stress cell" `Quick
          test_hinted_sparse_stress_cell;
        Alcotest.test_case "create invalid" `Quick test_create_invalid;
        Alcotest.test_case "register slots" `Quick test_register_slots;
        Alcotest.test_case "register_at" `Quick test_register_at;
        Alcotest.test_case "local roundtrip" `Quick test_local_roundtrip;
      ]
      @ per_kind "steal across slots" test_steal_across_slots
      @ per_kind "remove confirms empty" test_remove_confirms_empty
      @ per_kind "try_remove nonblocking" test_try_remove_nonblocking
      @ per_kind "conservation under domains" test_conservation_under_domains
      @ per_kind "producer/consumer domains" test_producer_consumer_domains
      @ per_kind "work-generating workload" test_work_generating_workload );
    ( "mcpool.pool_of_config",
      [
        Alcotest.test_case "of_config defaults" `Quick test_of_config_defaults;
        Alcotest.test_case "of_config forwards every field" `Quick
          test_of_config_forwards_every_field;
      ] );
  ]

(* --- Bounded multicore pools --- *)

let test_bounded_spill_and_reject () =
  let pool = Mc_pool.of_config { Mc_pool.Config.default with capacity = Some 2; segments = 2 } in
  let h0 = Mc_pool.register_at pool 0 in
  Alcotest.(check bool) "1" true (Mc_pool.try_add pool h0 1);
  Alcotest.(check bool) "2" true (Mc_pool.try_add pool h0 2);
  (* Own segment full: spills to slot 1. *)
  Alcotest.(check bool) "3 spills" true (Mc_pool.try_add pool h0 3);
  Alcotest.(check bool) "4 spills" true (Mc_pool.try_add pool h0 4);
  Alcotest.(check bool) "5 rejected" false (Mc_pool.try_add pool h0 5);
  Alcotest.(check int) "size capped" 4 (Mc_pool.size pool);
  (match Mc_pool.add pool h0 6 with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "expected Failure");
  Mc_pool.deregister pool h0

let test_bounded_capacity_validated () =
  Alcotest.check_raises "capacity"
    (Invalid_argument "Mc_pool.of_config: capacity must be positive")
    (fun () -> ignore (Mc_pool.of_config { Mc_pool.Config.default with capacity = Some 0; segments = 2 } : int Mc_pool.t))

let test_bounded_steal_capped () =
  let pool = Mc_pool.of_config { Mc_pool.Config.default with capacity = Some 4; segments = 2 } in
  let h0 = Mc_pool.register_at pool 0 in
  let h1 = Mc_pool.register_at pool 1 in
  for i = 1 to 4 do
    Mc_pool.add pool h1 i
  done;
  (* Thief empty, spare 4: a steal of ceil(4/2)=2 fits the reservation. *)
  Alcotest.(check bool) "steals" true (Mc_pool.try_remove pool h0 <> None);
  Alcotest.(check int) "conserved" 3 (Mc_pool.size pool);
  Alcotest.(check bool) "segments consistent" true (Mc_pool.check_segments pool);
  Mc_pool.deregister pool h0;
  Mc_pool.deregister pool h1

(* Runs [work] while a watcher domain polls every segment's occupied
   capacity; returns how often it saw one past [capacity]. *)
let watch_capacity pool ~capacity work =
  let stop = Atomic.make false in
  let over_capacity = Atomic.make 0 in
  let watcher =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Array.iter
            (fun size -> if size > capacity then Atomic.incr over_capacity)
            (Mc_pool.segment_sizes pool);
          Domain.cpu_relax ()
        done)
  in
  work ();
  Atomic.set stop true;
  Domain.join watcher;
  Atomic.get over_capacity

let drain_into pool h removed =
  let rec drain () =
    match Mc_pool.remove pool h with
    | Some _ ->
      Atomic.incr removed;
      drain ()
    | None -> ()
  in
  drain ()

let test_bounded_capacity_never_exceeded kind () =
  (* Regression for the capacity race: steals used to size their take from
     an unlocked [spare] read and then deposit unconditionally, so racing
     thieves could push a segment past its bound. A watcher domain polls
     every segment's occupied capacity throughout an add-heavy
     multi-domain run: the bound must hold at every instant. *)
  let domains = 4 and capacity = 8 and per = 10_000 in
  let pool =
    Mc_pool.of_config
      { Mc_pool.Config.default with kind; capacity = Some capacity; segments = domains }
  in
  let handles = Array.init domains (Mc_pool.register_at pool) in
  let added = Atomic.make 0 and removed = Atomic.make 0 in
  let over =
    watch_capacity pool ~capacity (fun () ->
        List.init domains (fun i ->
            Domain.spawn (fun () ->
                let h = handles.(i) in
                for k = 1 to per do
                  (* Add-heavy (2 adds : 1 remove) keeps segments pinned at
                     the bound, maximising spills and capped steals. *)
                  if k mod 3 < 2 then begin
                    if Mc_pool.try_add pool h k then Atomic.incr added
                  end
                  else
                    match Mc_pool.try_remove pool h with
                    | Some _ -> Atomic.incr removed
                    | None -> ()
                done;
                drain_into pool h removed;
                Mc_pool.deregister pool h))
        |> List.iter Domain.join)
  in
  Alcotest.(check int) "capacity never exceeded" 0 over;
  Alcotest.(check int) "conservation" (Atomic.get added) (Atomic.get removed);
  Alcotest.(check int) "drained" 0 (Mc_pool.size pool);
  Alcotest.(check bool) "segments consistent" true (Mc_pool.check_segments pool);
  (* One producer and one consumer at capacity 1,024: the consumer's
     bounded transfers move up to hundreds of elements each into its own
     ring, growing it, under the same watcher. The first one starts from a
     full producer segment, so it moves 512. *)
  let capacity = 1_024 and per = 50_000 in
  let pool =
    Mc_pool.of_config
      { Mc_pool.Config.default with kind; capacity = Some capacity; segments = 2 }
  in
  let producer = Mc_pool.register_at pool 0 and consumer = Mc_pool.register_at pool 1 in
  let added = Atomic.make 0 and removed = Atomic.make 0 and produced = Atomic.make false in
  for k = 1 to capacity do
    Mc_pool.add pool producer k;
    Atomic.incr added
  done;
  let over =
    watch_capacity pool ~capacity (fun () ->
        if Mc_pool.try_remove pool consumer = None then Alcotest.fail "first steal missed";
        Atomic.incr removed;
        let p =
          Domain.spawn (fun () ->
              for k = 1 to per do
                if Mc_pool.try_add pool producer k then Atomic.incr added
              done;
              (* A blocking remove waits for every registered handle. *)
              Mc_pool.deregister pool producer;
              Atomic.set produced true)
        in
        while not (Atomic.get produced) do
          match Mc_pool.try_remove pool consumer with
          | Some _ -> Atomic.incr removed
          | None -> Domain.cpu_relax ()
        done;
        Domain.join p;
        drain_into pool consumer removed)
  in
  Alcotest.(check int) "capacity never exceeded (1 producer, 1 consumer)" 0 over;
  Alcotest.(check int) "conservation (1 producer, 1 consumer)" (Atomic.get added)
    (Atomic.get removed);
  Alcotest.(check (float 0.0)) "largest transfer: half a full segment" 512.0
    (Cpool_metrics.Sample.max_value
       (Mc_stats.steal_batch_sizes (Mc_pool.stats_of_handle consumer)));
  Mc_pool.deregister pool consumer;
  Alcotest.(check bool) "segments consistent (1 producer, 1 consumer)" true
    (Mc_pool.check_segments pool)

(* --- Segment-level capacity primitives --- *)

(* [reserve] claims headroom that counts as occupied; a transfer under it
   banks at most [reserved] elements and releases the rest. *)
let test_segment_reserve_transfer () =
  let s : int Mc_segment.t = Mc_segment.make ~capacity:4 ~id:0 () in
  Alcotest.(check bool) "one stored" true (Mc_segment.try_add s 1);
  Alcotest.(check int) "reservation capped by spare" 3 (Mc_segment.reserve s 10);
  Alcotest.(check int) "reservation occupies capacity" 4 (Mc_segment.size s);
  Alcotest.(check bool) "adds see no room" false (Mc_segment.try_add s 2);
  let victim : int Mc_segment.t = Mc_segment.make ~id:1 () in
  List.iter (Mc_segment.add victim) [ 5; 6; 7; 8; 9; 10 ];
  (match Mc_segment.steal_into ~reserved:3 victim ~into:s with
  | Mc_segment.Took (x, w) ->
    Alcotest.(check (pair int int)) "oldest returned, half claimed" (5, 3) (x, w)
  | Mc_segment.Missed -> Alcotest.fail "transfer found nothing");
  Alcotest.(check int) "unused reservation released" 3 (Mc_segment.size s);
  Alcotest.(check bool) "consistent after the transfer" true (Mc_segment.invariant_ok s);
  Alcotest.(check int) "reservation capped by spare again" 1 (Mc_segment.reserve s 2);
  (match Mc_segment.steal_into ~reserved:1 (Mc_segment.make ~id:2 ()) ~into:s with
  | Mc_segment.Missed -> ()
  | Mc_segment.Took _ -> Alcotest.fail "an empty victim yielded an element");
  Alcotest.(check int) "released when nothing was taken" 3 (Mc_segment.size s);
  Alcotest.(check bool) "consistent after a miss" true (Mc_segment.invariant_ok s);
  Alcotest.check_raises "negative reservation"
    (Invalid_argument "Mc_segment.reserve: negative reservation") (fun () ->
      ignore (Mc_segment.reserve s (-1)))

(* --- Ring protocol and its counters --- *)

let test_segment_spill_add () =
  let s : int Mc_segment.t = Mc_segment.make ~capacity:3 ~id:0 () in
  Alcotest.(check bool) "owner add" true (Mc_segment.try_add s 1);
  Alcotest.(check bool) "spill 1" true (Mc_segment.spill_add s 2);
  Alcotest.(check bool) "spill 2" true (Mc_segment.spill_add s 3);
  Alcotest.(check bool) "spill past bound rejected" false (Mc_segment.spill_add s 4);
  Alcotest.(check int) "size" 3 (Mc_segment.size s);
  Alcotest.(check bool) "consistent" true (Mc_segment.invariant_ok s);
  (* All three come back out through the owner (ring first, then inbox). *)
  let rec drain acc =
    match Mc_segment.try_remove s with Some x -> drain (x :: acc) | None -> acc
  in
  Alcotest.(check (list int)) "all retrieved" [ 1; 2; 3 ] (List.sort compare (drain []));
  let stats = Mc_segment.stats s in
  Alcotest.(check int) "inbox adds counted" 2
    (Cpool_metrics.Counters.get (Mc_stats.counters stats) "inbox adds")

let test_segment_ring_wrap_churn () =
  (* Push/pop churn far past the initial ring size: the cursors are
     monotone, so the ring indices wrap many times; every element must
     come back exactly once, interleaved with steals. *)
  let s : int Mc_segment.t = Mc_segment.make ~id:0 () in
  let seen = Hashtbl.create 64 in
  let next = ref 0 in
  let out = ref 0 in
  for round = 1 to 200 do
    for _ = 1 to 7 do
      incr next;
      Mc_segment.add s !next
    done;
    (match Mc_segment.steal_half ~max_take:2 s with
    | Cpool.Steal.Nothing -> ()
    | Cpool.Steal.Single x ->
      incr out;
      Hashtbl.replace seen x ()
    | Cpool.Steal.Batch (x, rest) ->
      List.iter
        (fun y ->
          incr out;
          Hashtbl.replace seen y ())
        (x :: rest));
    let pops = if round mod 3 = 0 then 6 else 4 in
    for _ = 1 to pops do
      match Mc_segment.try_remove s with
      | Some x ->
        incr out;
        Hashtbl.replace seen x ()
      | None -> ()
    done
  done;
  let rec drain () =
    match Mc_segment.try_remove s with
    | Some x ->
      incr out;
      Hashtbl.replace seen x ();
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "every element out exactly once" !next !out;
  Alcotest.(check int) "no duplicates" !next (Hashtbl.length seen);
  Alcotest.(check bool) "consistent" true (Mc_segment.invariant_ok s)

(* The owner's hot path allocates nothing once the ring is large enough:
   an add stores straight into the flat ring, and a pop's only allocation
   is the [Some] it returns (2 words). [Gc.minor_words] deltas over a
   warmed-up ring, with a small constant allowance for the measurement's
   own boxed floats. *)
let alloc_ops = 10_000

let alloc_slack = 64.0

let test_owner_path_allocation_budget () =
  let s : int Mc_segment.t = Mc_segment.make ~id:0 () in
  (* Grow the ring to hold every measured add, then empty it. *)
  for i = 1 to alloc_ops do
    Mc_segment.add s i
  done;
  while Mc_segment.try_remove s <> None do
    ()
  done;
  let w0 = Gc.minor_words () in
  for i = 1 to alloc_ops do
    Mc_segment.add s i
  done;
  let adds = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "%d segment adds allocate nothing (saw %.0f words)" alloc_ops adds)
    true (adds <= alloc_slack);
  let pair_budget = (2.0 *. float_of_int alloc_ops) +. alloc_slack in
  let w0 = Gc.minor_words () in
  for i = 1 to alloc_ops do
    Mc_segment.add s i;
    ignore (Mc_segment.try_remove s : int option)
  done;
  let pairs = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "segment add+pop pairs: only the Some (saw %.0f words)" pairs)
    true (pairs <= pair_budget);
  let pool : int Mc_pool.t = Mc_pool.of_config Mc_pool.Config.default in
  let h = Mc_pool.register pool in
  for i = 1 to alloc_ops do
    Mc_pool.add pool h i
  done;
  while Mc_pool.try_remove_local pool h <> None do
    ()
  done;
  let w0 = Gc.minor_words () in
  for i = 1 to alloc_ops do
    Mc_pool.add pool h i;
    ignore (Mc_pool.try_remove_local pool h : int option)
  done;
  let pairs = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "pool add+local pairs: only the Some (saw %.0f words)" pairs)
    true (pairs <= pair_budget);
  (* A search that finds nothing allocates nothing either: a failed
     [try_remove] (local miss, one search pass, one sweep) and a [remove]
     that confirms emptiness (a hunt ending in the confirming sweep), on an
     empty four-segment pool with one registered handle. *)
  List.iter
    (fun kind ->
      let pool : int Mc_pool.t =
        Mc_pool.of_config { Mc_pool.Config.default with segments = 4; kind }
      in
      let h = Mc_pool.register pool in
      let misses name op =
        ignore (op () : int option);
        let w0 = Gc.minor_words () in
        for _ = 1 to alloc_ops do
          if op () <> None then Alcotest.failf "%s found an element" name
        done;
        let words = Gc.minor_words () -. w0 in
        Alcotest.(check bool)
          (Printf.sprintf "%s %s allocates nothing (saw %.0f words)"
             (Cpool_intf.to_string kind) name words)
          true (words <= alloc_slack)
      in
      misses "failed try_remove" (fun () -> Mc_pool.try_remove pool h);
      misses "empty-confirming remove" (fun () -> Mc_pool.remove pool h))
    [ Mc_pool.Linear; Mc_pool.Hinted ];
  (* A ring-to-ring transfer of [w] elements allocates its [Took] block (3
     words) and nothing per element: measured at w = 2 and w = 256 over
     1,000 transfers each, the victim restocked to [2 w] by owner adds
     between them and the thief's ring grown in advance to bank them all. *)
  let transfers = 1_000 in
  let transfer_words w =
    let victim : int Mc_segment.t = Mc_segment.make ~id:1 () in
    let thief : int Mc_segment.t = Mc_segment.make ~id:2 () in
    for i = 1 to transfers * w do
      Mc_segment.add thief i
    done;
    while Mc_segment.try_remove thief <> None do
      ()
    done;
    for i = 1 to w do
      Mc_segment.add victim i
    done;
    Gc.minor ();
    let promoted0 = (Gc.quick_stat ()).Gc.promoted_words in
    let w0 = Gc.minor_words () in
    for _ = 1 to transfers do
      for i = 1 to w do
        Mc_segment.add victim i
      done;
      match Mc_segment.steal_into victim ~into:thief with
      | Mc_segment.Took (_, took) ->
        if took <> w then Alcotest.failf "took %d, wanted %d" took w
      | Mc_segment.Missed -> Alcotest.fail "transfer found nothing"
    done;
    let words = Gc.minor_words () -. w0 in
    let promoted = (Gc.quick_stat ()).Gc.promoted_words -. promoted0 in
    Alcotest.(check (float 0.0)) (Printf.sprintf "w = %d: nothing promoted" w) 0.0 promoted;
    Alcotest.(check int) "every element banked" (transfers * (w - 1)) (Mc_segment.size thief);
    words
  in
  let small = transfer_words 2 and large = transfer_words 256 in
  let block_budget = (3.0 *. float_of_int transfers) +. alloc_slack in
  Alcotest.(check bool)
    (Printf.sprintf "transfers of 2: one small block each (saw %.0f words)" small)
    true (small <= block_budget);
  Alcotest.(check bool)
    (Printf.sprintf "transfers of 256 allocate as transfers of 2 (saw %.0f and %.0f words)"
       large small)
    true (Float.abs (large -. small) <= alloc_slack)

(* The flat ring holds removed elements until the owner scrubs their slots.
   Weak pointers check that what was taken — by owner pops, by steal_half,
   on both sides of a ring growth, and by a transfer into another
   segment — becomes collectable by the owner's next push or idle
   [try_remove], while live elements stay reachable. *)
let test_segment_ring_releases_removed () =
  let s : int ref Mc_segment.t = Mc_segment.make ~id:0 () in
  let w = Weak.create 24 in
  (* No local binding to an element survives its [add]. *)
  let put i =
    let r = ref i in
    Weak.set w i (Some r);
    Mc_segment.add s r
  in
  let pop () = ignore (Mc_segment.try_remove s : int ref option) in
  let steal () = ignore (Mc_segment.steal_half s : int ref Cpool.Steal.loot) in
  let collected i = Weak.get w i = None in
  let check_range what lo hi want =
    for i = lo to hi do
      Alcotest.(check bool) (Printf.sprintf "%s %d" what i) want (collected i)
    done
  in
  (* Initial 8-slot ring: pop 0 and 1, steal ceil(4/2) = 2 and 3. *)
  for i = 0 to 5 do
    put i
  done;
  pop ();
  pop ();
  steal ();
  (* Ten more adds grow the ring: 4 and 5 are copied into the new one. *)
  for i = 6 to 15 do
    put i
  done;
  (* Pop 4 and 5 from the grown ring, steal ceil(10/2) = 6..10; the next
     push scrubs their slots. *)
  pop ();
  pop ();
  steal ();
  put 16;
  Gc.full_major ();
  check_range "removed element collected" 0 10 true;
  check_range "live element kept" 11 16 false;
  (* Drain. Pops do not scrub: the drained slots keep their elements until
     the idle call. *)
  for _ = 11 to 16 do
    pop ()
  done;
  Alcotest.(check bool) "idle try_remove" true (Mc_segment.try_remove s = None);
  Gc.full_major ();
  check_range "drained element collected" 11 16 true;
  Alcotest.(check bool) "consistent" true (Mc_segment.invariant_ok s);
  (* A transfer into a thief's segment: the victim's next push scrubs the
     claimed slots, so the returned element goes once the caller drops it,
     while the banked ones stay alive in the thief's ring until the thief
     takes them and idles. *)
  let thief : int ref Mc_segment.t = Mc_segment.make ~id:1 () in
  for i = 17 to 22 do
    put i
  done;
  (match Mc_segment.steal_into s ~into:thief with
  | Mc_segment.Took (_, w) -> Alcotest.(check int) "transfer claims ceil(6/2)" 3 w
  | Mc_segment.Missed -> Alcotest.fail "transfer found nothing");
  put 23;
  Gc.full_major ();
  check_range "returned element collected" 17 17 true;
  check_range "banked element kept" 18 19 false;
  check_range "victim's element kept" 20 23 false;
  for _ = 1 to 2 do
    ignore (Mc_segment.try_remove thief : int ref option)
  done;
  Alcotest.(check bool) "thief idles" true (Mc_segment.try_remove thief = None);
  Gc.full_major ();
  check_range "banked element collected once taken" 18 19 true;
  Alcotest.(check bool) "thief consistent" true (Mc_segment.invariant_ok thief);
  Alcotest.(check bool) "victim consistent" true (Mc_segment.invariant_ok s)

(* Slots are [Obj.t], made from an immediate filler: a float element is
   stored as its box, never in a flat float array (where the immediate
   filler would be dereferenced as a double). Floats must survive every
   path in and out of the ring. *)
let test_segment_float_elements () =
  let s : float Mc_segment.t = Mc_segment.make ~id:0 () in
  let v i = float_of_int i +. 0.25 in
  let floats = Alcotest.(list (float 0.0)) in
  Mc_segment.add s (v 0);
  Alcotest.(check (option (float 0.0))) "add then pop" (Some (v 0)) (Mc_segment.try_remove s);
  (* 40 adds grow the initial 8-slot ring three times. *)
  for i = 1 to 40 do
    Mc_segment.add s (v i)
  done;
  let loot =
    match Mc_segment.steal_half s with
    | Cpool.Steal.Nothing -> []
    | Cpool.Steal.Single x -> [ x ]
    | Cpool.Steal.Batch (x, rest) -> x :: rest
  in
  Alcotest.check floats "steal_half: the oldest half" (List.init 20 (fun i -> v (i + 1))) loot;
  for i = 41 to 45 do
    Alcotest.(check bool) "spill_add" true (Mc_segment.spill_add s (v i))
  done;
  (* The owner pops the ring dry, then drains the inbox into it. *)
  let rec drain acc =
    match Mc_segment.try_remove s with Some x -> drain (x :: acc) | None -> List.rev acc
  in
  Alcotest.check floats "ring then inbox, in order" (List.init 25 (fun i -> v (i + 21)))
    (drain []);
  Alcotest.(check bool) "consistent" true (Mc_segment.invariant_ok s)

let test_segment_ring_op_stats () =
  let s : int Mc_segment.t = Mc_segment.make ~id:0 () in
  for i = 1 to 8 do
    Mc_segment.add s i
  done;
  for _ = 1 to 8 do
    ignore (Mc_segment.try_remove s)
  done;
  let stats = Mc_segment.stats s in
  let get name = Cpool_metrics.Counters.get (Mc_stats.counters stats) name in
  (* Every owner op is lock-free: pushes publish with one fetch-and-add of
     [bottom], pops (including the last element) commit with one CAS on
     [top]. The labels are read by name outside this library, so they are
     pinned here. *)
  Alcotest.(check int) "every push counted" 8 (get "fast-path pushes");
  Alcotest.(check int) "every pop counted" 8 (get "fast-path pops");
  Alcotest.(check int) "ring ops" 16 (Mc_stats.fast_path_ops stats);
  Alcotest.(check int) "uncontended: no CAS retries" 0 (get "top CAS retries")

(* The repository benchmark reads the merged pool counters by label, and
   [Counters.get] answers 0 for an unknown one: a renamed label would
   silently zero a metric rather than fail. Pin the labels on the merged
   snapshot the benchmark actually reads, not just on one segment. *)
let test_pool_counter_labels () =
  let pool : int Mc_pool.t = Mc_pool.of_config { Mc_pool.Config.default with segments = 2 } in
  let h = Mc_pool.register_at pool 0 in
  for i = 1 to 5 do
    Mc_pool.add pool h i
  done;
  for _ = 1 to 5 do
    ignore (Mc_pool.try_remove pool h)
  done;
  Mc_pool.deregister pool h;
  let stats = Mc_pool.stats pool in
  let get = Cpool_metrics.Counters.get (Mc_stats.counters stats) in
  Alcotest.(check int) "fast-path pushes" 5 (get "fast-path pushes");
  Alcotest.(check int) "fast-path pops" 5 (get "fast-path pops");
  Alcotest.(check int) "ring ops" 10 (Mc_stats.fast_path_ops stats);
  Alcotest.(check int) "steals" 0 (get "steals")

(* A transfer publishes its banked tail with one fetch-and-add of
   [bottom], so each counts as one ring push on the thief's segment
   whatever its length, and one that banks nothing publishes nothing. The
   inbox fallback banks its cells with one batched push too. A spill goes
   to the inbox, not the ring. *)
let test_segment_batch_push_stats () =
  let s : int Mc_segment.t = Mc_segment.make ~id:0 () in
  let victim : int Mc_segment.t = Mc_segment.make ~id:1 () in
  List.iter (Mc_segment.add victim) [ 1; 2; 3; 4; 5; 6 ];
  let returned = ref [] in
  let transfer ?reserved () =
    match Mc_segment.steal_into ?reserved victim ~into:s with
    | Mc_segment.Took (x, _) -> returned := x :: !returned
    | Mc_segment.Missed -> Alcotest.fail "transfer found nothing"
  in
  transfer ();
  (* 1 returned, 2 and 3 banked in one push. *)
  transfer ~reserved:(Mc_segment.reserve s 0) ();
  (* Capped at one element: 4 returned, nothing banked. *)
  transfer ();
  transfer ();
  (* 5, then 6: single-element windows. The ring is dry now. *)
  List.iter (fun x -> ignore (Mc_segment.spill_add victim x : bool)) [ 7; 8; 9 ];
  transfer ();
  (* Inbox fallback: ceil(3/2) = 2 cells, the newest (9) returned and 8
     banked in one push. *)
  Alcotest.(check bool) "spill" true (Mc_segment.spill_add s 10);
  let get name = Cpool_metrics.Counters.get (Mc_stats.counters (Mc_segment.stats s)) name in
  Alcotest.(check int) "one push per non-empty banked batch" 2 (get "fast-path pushes");
  Alcotest.(check int) "spill counted on the inbox" 1 (get "inbox adds");
  Alcotest.(check (list int)) "oldest elements returned" [ 1; 4; 5; 6; 9 ] (List.rev !returned);
  Alcotest.(check int) "every banked element stored" 4 (Mc_segment.size s);
  let rec drain acc =
    match Mc_segment.try_remove s with Some x -> drain (x :: acc) | None -> List.rev acc
  in
  Alcotest.(check (list int)) "drained in FIFO order" [ 2; 3; 8; 10 ] (drain []);
  Alcotest.(check int) "one pop per element" 4 (get "fast-path pops");
  Alcotest.(check bool) "consistent" true (Mc_segment.invariant_ok s);
  Alcotest.(check bool) "victim consistent" true (Mc_segment.invariant_ok victim)

(* A search pass probes the thief's own slot too, so a segment may be the
   victim of a transfer into itself: the tail moves from the front of the
   ring to its back. *)
let test_segment_transfer_into_itself () =
  let s : int Mc_segment.t = Mc_segment.make ~id:0 () in
  List.iter (Mc_segment.add s) [ 1; 2; 3; 4; 5; 6; 7 ];
  (match Mc_segment.steal_into s ~into:s with
  | Mc_segment.Took (x, w) -> Alcotest.(check (pair int int)) "oldest, half" (1, 4) (x, w)
  | Mc_segment.Missed -> Alcotest.fail "transfer found nothing");
  Alcotest.(check int) "size" 6 (Mc_segment.size s);
  Alcotest.(check bool) "consistent" true (Mc_segment.invariant_ok s);
  let rec drain acc =
    match Mc_segment.try_remove s with Some x -> drain (x :: acc) | None -> List.rev acc
  in
  Alcotest.(check (list int)) "tail moved to the back" [ 5; 6; 7; 2; 3; 4 ] (drain []);
  Alcotest.(check bool) "consistent when drained" true (Mc_segment.invariant_ok s)

let test_segment_steal_batch_stats () =
  (* Batch-size telemetry lives on the thief's handle now: with the victim
     segment lock-free there is no serialization point left on its side to
     record a single-writer sample. Exercise it through the pool. *)
  let pool : int Mc_pool.t = Mc_pool.of_config { Mc_pool.Config.default with segments = 2 } in
  let h0 = Mc_pool.register_at pool 0 in
  let h1 = Mc_pool.register_at pool 1 in
  for i = 1 to 8 do
    Mc_pool.add pool h1 i
  done;
  (* Steal 1: ceil(8/2) = 4 claimed in one batched CAS window. *)
  Alcotest.(check (option int)) "first steal, victim's oldest" (Some 1)
    (Mc_pool.try_remove pool h0);
  for _ = 1 to 3 do
    ignore (Mc_pool.try_remove_local pool h0)
  done;
  (* Steal 2: victim holds 5..8, so ceil(4/2) = 2 claimed. *)
  Alcotest.(check (option int)) "second steal" (Some 5) (Mc_pool.try_remove pool h0);
  ignore (Mc_pool.try_remove_local pool h0);
  (* Steal 3: victim holds 7 and 8 — a single-element claim. *)
  Alcotest.(check (option int)) "single steal" (Some 7) (Mc_pool.try_remove pool h0);
  let stats = Mc_pool.stats_of_handle h0 in
  Alcotest.(check int) "only multi-element steals are batched" 2
    (Cpool_metrics.Counters.get (Mc_stats.counters stats) "batched steals");
  let sizes = Mc_stats.steal_batch_sizes stats in
  Alcotest.(check int) "every steal sampled" 3 (Cpool_metrics.Sample.n sizes);
  Alcotest.(check (float 0.0)) "largest batch" 4.0 (Cpool_metrics.Sample.max_value sizes)

let test_segment_concurrent_steal_disjoint () =
  (* Two stealer domains race batched CAS claims on one owner's ring while
     the owner keeps pushing and popping. Element identity proves loot
     disjointness: every pushed element comes out exactly once — a failed
     claim that still delivered (double-take) or a lost window would break
     the multiset equality. *)
  let s : int Mc_segment.t = Mc_segment.make ~id:0 () in
  let total = 20_000 in
  let loot = Array.make 2 [] in
  let stop = Atomic.make false in
  let thieves =
    List.init 2 (fun i ->
        Domain.spawn (fun () ->
            let acc = ref [] in
            while not (Atomic.get stop) do
              match Mc_segment.steal_half ~max_take:3 s with
              | Cpool.Steal.Nothing -> Domain.cpu_relax ()
              | Cpool.Steal.Single x -> acc := x :: !acc
              | Cpool.Steal.Batch (x, rest) -> acc := List.rev_append (x :: rest) !acc
            done;
            loot.(i) <- !acc))
  in
  let popped = ref [] in
  for i = 1 to total do
    Mc_segment.add s i;
    if i mod 3 = 0 then
      match Mc_segment.try_remove s with
      | Some x -> popped := x :: !popped
      | None -> ()
  done;
  Atomic.set stop true;
  List.iter Domain.join thieves;
  let rec drain () =
    match Mc_segment.try_remove s with
    | Some x ->
      popped := x :: !popped;
      drain ()
    | None -> ()
  in
  drain ();
  let all = List.concat [ loot.(0); loot.(1); !popped ] in
  Alcotest.(check int) "conserved" total (List.length all);
  Alcotest.(check bool) "every element exactly once" true
    (List.sort compare all = List.init total (fun i -> i + 1));
  Alcotest.(check bool) "consistent" true (Mc_segment.invariant_ok s)

let test_segment_mpsc_drain_completeness () =
  (* Three spiller domains CAS-push onto the MPSC inbox while the owner
     pops concurrently. Spill traffic is FIFO end-to-end (the drain
     reverses the Treiber stack back to arrival order before folding it
     into the ring), so each spiller's elements must come out in its own
     push order; and with no stealers, every spilled element must arrive
     through an owner drain. *)
  let s : (int * int) Mc_segment.t = Mc_segment.make ~id:0 () in
  let per = 5_000 in
  let spillers_done = Atomic.make 0 in
  let spillers =
    List.init 3 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per do
              while not (Mc_segment.spill_add s (d, i)) do
                Domain.cpu_relax ()
              done
            done;
            Atomic.incr spillers_done))
  in
  let total = 3 * per in
  let seen = Array.make 3 0 in
  let got = ref 0 in
  while !got < total do
    match Mc_segment.try_remove s with
    | Some (d, i) ->
      incr got;
      if i <> seen.(d) + 1 then
        Alcotest.failf "spiller %d out of order: got %d after %d" d i seen.(d);
      seen.(d) <- i
    | None ->
      if Atomic.get spillers_done = 3 && Mc_segment.size s = 0 then
        Alcotest.failf "lost elements: only %d of %d drained" !got total;
      Domain.cpu_relax ()
  done;
  List.iter Domain.join spillers;
  Alcotest.(check bool) "drained dry" true (Mc_segment.try_remove s = None);
  Alcotest.(check bool) "consistent" true (Mc_segment.invariant_ok s);
  let c = Mc_stats.counters (Mc_segment.stats s) in
  Alcotest.(check int) "every spill was an inbox add" total
    (Cpool_metrics.Counters.get c "inbox adds");
  Alcotest.(check int) "every inbox element drained by the owner" total
    (Cpool_metrics.Counters.get c "inbox drained")

let test_mc_bench_smoke () =
  let cell =
    {
      Cpool_mc.Mc_bench.kind = Mc_pool.Linear;
      domains = 2;
      workload = Cpool_intf.Workload.sufficient;
      topo = None;
      aware = true;
    }
  in
  let r = Cpool_mc.Mc_bench.run_cell ~seconds:0.05 cell in
  Alcotest.(check bool) "did work" true (r.Cpool_mc.Mc_bench.ops > 0);
  Alcotest.(check bool) "throughput positive" true (r.Cpool_mc.Mc_bench.ops_per_sec > 0.0);
  Alcotest.(check bool) "ring ops counted" true (r.Cpool_mc.Mc_bench.fast_ops > 0);
  let config =
    {
      Cpool_mc.Mc_bench.default with
      workloads =
        [ { Cpool_intf.Workload.sufficient with duration_s = 0.05 } ];
      domain_counts = [ 2 ];
    }
  in
  let doc = Cpool_mc.Mc_bench.to_json config [ r ] in
  (match Cpool_util.Json.parse (Cpool_util.Json.to_string doc) with
  | Error e -> Alcotest.fail ("emitted JSON does not re-parse: " ^ e)
  | Ok doc' -> (
    match Cpool_mc.Mc_bench.validate_json doc' with
    | Ok 1 -> ()
    | Ok n -> Alcotest.fail (Printf.sprintf "expected 1 cell, validator saw %d" n)
    | Error e -> Alcotest.fail ("validator rejected the artifact: " ^ e)));
  (* The counter-accounting check must reject a self-contradictory cell:
     the same result with one counter pushed past [ops_attempted]. *)
  let over = r.Cpool_mc.Mc_bench.ops_attempted + 1 in
  List.iter
    (fun (name, bad) ->
      match Cpool_mc.Mc_bench.(validate_json (to_json config [ bad ])) with
      | Error e ->
        Alcotest.(check bool) ("error names " ^ name) true
          (String.starts_with ~prefix:(Printf.sprintf "cell 0: %s " name) e)
      | Ok _ -> Alcotest.failf "validator accepted %s > ops_attempted" name)
    [ ("fast_ops", { r with fast_ops = over }); ("ops", { r with ops = over }) ]

(* The committed artifact predates the removal of the all-mutex twin: its
   cells still carry [fast_path], [locked_ops] and [fast_fraction], which
   the validator ignores. It must keep validating as it stands. *)
let test_committed_bench_artifact () =
  let text = In_channel.with_open_bin "../BENCH_mcpool.json" In_channel.input_all in
  match Cpool_util.Json.parse text with
  | Error e -> Alcotest.fail ("BENCH_mcpool.json does not parse: " ^ e)
  | Ok doc -> (
    match Cpool_mc.Mc_bench.validate_json doc with
    | Ok n -> Alcotest.(check int) "cells" 64 n
    | Error e -> Alcotest.fail ("validator rejected BENCH_mcpool.json: " ^ e))

(* One tiny grid with a topology: a plain cell, then the topology-aware
   cell and its distance-oblivious twin. *)
let topology_grid () =
  let config =
    {
      Cpool_mc.Mc_bench.default with
      kinds = [ Mc_pool.Linear ];
      domain_counts = [ 2 ];
      workloads = [ { Cpool_intf.Workload.sparse with duration_s = 0.02 } ];
      topo_of = Some (fun nodes -> Ok (Cpool_topology.two_group ~nodes ()));
    }
  in
  (config, Cpool_mc.Mc_bench.run config)

let test_mc_bench_topology_twins () =
  let config, results = topology_grid () in
  let cells = List.map (fun r -> r.Cpool_mc.Mc_bench.cell) results in
  Alcotest.(check (list (pair bool bool)))
    "plain, aware, oblivious" [ (false, true); (true, true); (true, false) ]
    (List.map (fun c -> (c.Cpool_mc.Mc_bench.topo <> None, c.aware)) cells);
  match Cpool_mc.Mc_bench.(validate_json (to_json config results)) with
  | Ok n -> Alcotest.(check int) "validated cells" 3 n
  | Error e -> Alcotest.fail ("validator rejected the topology grid: " ^ e)

let test_mc_bench_rejects_locality_split () =
  (* Every steal of a topology cell is near or far: a cell whose split
     does not add up to its steal count is self-contradictory. *)
  let config, results = topology_grid () in
  let broken =
    List.map
      (fun r ->
        if r.Cpool_mc.Mc_bench.cell.topo = None then r
        else { r with near_steals = r.near_steals + 1 })
      results
  in
  match Cpool_mc.Mc_bench.(validate_json (to_json config broken)) with
  | Error e ->
    Alcotest.(check bool) "error names the first topology cell" true
      (String.starts_with ~prefix:"cell 1: " e)
  | Ok _ -> Alcotest.fail "validator accepted near + far <> steals"

let suites =
  main_suites
  @ [
    ( "mcpool.ring",
      [
        Alcotest.test_case "spill_add capacity and retrieval" `Quick test_segment_spill_add;
        Alcotest.test_case "ring wrap churn conserves" `Quick test_segment_ring_wrap_churn;
        Alcotest.test_case "owner path allocation budget" `Quick
          test_owner_path_allocation_budget;
        Alcotest.test_case "removed elements collectable" `Quick
          test_segment_ring_releases_removed;
        Alcotest.test_case "float elements round-trip" `Quick test_segment_float_elements;
        Alcotest.test_case "fast-path counters" `Quick test_segment_ring_op_stats;
        Alcotest.test_case "pool counters keep the benchmark's labels" `Quick
          test_pool_counter_labels;
        Alcotest.test_case "batched-steal stats" `Quick test_segment_steal_batch_stats;
        Alcotest.test_case "concurrent steal loot disjoint" `Quick
          test_segment_concurrent_steal_disjoint;
        Alcotest.test_case "mpsc drain completeness + FIFO" `Quick
          test_segment_mpsc_drain_completeness;
        Alcotest.test_case "mc_bench smoke + JSON artifact" `Quick test_mc_bench_smoke;
        Alcotest.test_case "batched pushes counted" `Quick test_segment_batch_push_stats;
        Alcotest.test_case "transfer into itself" `Quick test_segment_transfer_into_itself;
        Alcotest.test_case "committed BENCH_mcpool.json validates" `Quick
          test_committed_bench_artifact;
        Alcotest.test_case "topology cells run aware and oblivious" `Quick
          test_mc_bench_topology_twins;
        Alcotest.test_case "json-check rejects a broken locality split" `Quick
          test_mc_bench_rejects_locality_split;
      ] );
    ( "mcpool.lifecycle",
      [
        Alcotest.test_case "deregister releases slot" `Quick test_deregister_releases_slot;
        Alcotest.test_case "double deregister rejected" `Quick test_double_deregister_rejected;
        Alcotest.test_case "register/deregister churn x1000" `Quick
          test_register_deregister_churn;
        Alcotest.test_case "concurrent churn" `Quick test_concurrent_churn;
      ]
      @ per_kind "deregister while draining" test_deregister_while_draining );
    ( "mcpool.stats",
      [
        Alcotest.test_case "per-handle counters" `Quick test_stats_counters;
        Alcotest.test_case "pool stats survive churn" `Quick test_stats_survive_churn;
        Alcotest.test_case "telemetry table" `Quick test_stats_render;
      ]
      @ per_kind "stress harness smoke" test_stress_harness );
    ( "mcpool.bounded",
      [
        Alcotest.test_case "spill and reject" `Quick test_bounded_spill_and_reject;
        Alcotest.test_case "capacity validated" `Quick test_bounded_capacity_validated;
        Alcotest.test_case "steal capped" `Quick test_bounded_steal_capped;
        Alcotest.test_case "reserve and transfer" `Quick test_segment_reserve_transfer;
      ]
      @ per_kind "capacity never exceeded" test_bounded_capacity_never_exceeded );
  ]
