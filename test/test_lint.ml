(* Tests for the pools_lint static analyzer and interleaving checker:
   each rule fires on its known-bad fixture, stays quiet on the known-good
   one, suppressions work, lib/ self-lints clean, and the schedule
   enumerator both passes the real segment and catches a seeded race. *)

open Cpool_analysis

let fixture name = Filename.concat "lint_fixtures" name

let rules_of findings =
  List.sort_uniq String.compare (List.map (fun f -> f.Lint_rules.rule) findings)

let count_rule rule findings =
  List.length (List.filter (fun f -> String.equal f.Lint_rules.rule rule) findings)

let check_fixture_exists () =
  Alcotest.(check bool)
    "fixture corpus present" true
    (Sys.file_exists (fixture "bad_raw_mutex.ml"))

(* Fixtures live outside the R4 and R7 directories, so force those rules
   on. *)
let lint name =
  Lint_driver.lint_file ~ban_random:true ~ban_poly_compare:true (fixture name)

let test_r1_fires () =
  let fs = lint "bad_raw_mutex.ml" in
  Alcotest.(check int) "two raw mutex ops" 2 (count_rule Lint_rules.raw_mutex fs);
  Alcotest.(check (list string)) "only R1" [ Lint_rules.raw_mutex ] (rules_of fs)

let test_r1_quiet () =
  Alcotest.(check (list string)) "clean" [] (rules_of (lint "good_raw_mutex.ml"))

let test_r2_fires () =
  let fs = lint "bad_rmw.ml" in
  Alcotest.(check int)
    "direct + let-split + get-then-set rmw" 3
    (count_rule Lint_rules.non_atomic_rmw fs);
  Alcotest.(check (list string)) "only R2" [ Lint_rules.non_atomic_rmw ] (rules_of fs)

let test_r2_quiet_and_suppressed () =
  (* good_rmw.ml contains a suppressed Atomic.set-of-get with a reason, a
     CAS-retry loop, a CAS-sanctioned blind reset, and a cross-closure
     get/set pair: no findings must survive. *)
  Alcotest.(check (list string)) "clean" [] (rules_of (lint "good_rmw.ml"))

let test_r3_fires () =
  let fs = lint "bad_blocking.ml" in
  Alcotest.(check int)
    "sleep + nested lock" 2
    (count_rule Lint_rules.blocking_under_lock fs);
  Alcotest.(check (list string))
    "only R3" [ Lint_rules.blocking_under_lock ] (rules_of fs)

let test_r3_quiet () =
  Alcotest.(check (list string)) "clean" [] (rules_of (lint "good_blocking.ml"))

let test_r4_fires () =
  let fs = lint "bad_random.ml" in
  Alcotest.(check int)
    "self_init + int + make_self_init" 3
    (count_rule Lint_rules.ambient_random fs);
  Alcotest.(check (list string)) "only R4" [ Lint_rules.ambient_random ] (rules_of fs)

let test_r4_quiet () =
  Alcotest.(check (list string)) "clean" [] (rules_of (lint "good_random.ml"))

let test_r4_scope () =
  (* Outside the banned directories the rule defaults off. *)
  let fs = Lint_driver.lint_file (fixture "bad_random.ml") in
  Alcotest.(check int) "off by default here" 0 (count_rule Lint_rules.ambient_random fs)

let test_r5_fires () =
  let fs = Lint_driver.lint_tree ~require_mli:true [ fixture "r5_bad" ] in
  Alcotest.(check int) "missing mli" 1 (count_rule Lint_rules.missing_mli fs)

let test_r5_quiet () =
  let fs = Lint_driver.lint_tree ~require_mli:true [ fixture "r5_good" ] in
  Alcotest.(check (list string)) "clean" [] (rules_of fs)

let test_suppression_needs_reason () =
  let src = "let x = 1\n(* lint: " ^ "allow non-atomic-rmw *)\nlet y = 2\n" in
  let fs = Lint_driver.lint_source ~file:"inline.ml" src in
  Alcotest.(check int) "reasonless" 1 (count_rule Lint_rules.bad_suppression fs)

let test_suppression_unknown_rule () =
  let src = "(* lint: " ^ "allow no-such-rule -- because *)\nlet x = 1\n" in
  let fs = Lint_driver.lint_source ~file:"inline.ml" src in
  Alcotest.(check int) "unknown rule" 1 (count_rule Lint_rules.bad_suppression fs)

let test_r6_fires () =
  let fs = lint "bad_raw_obj.ml" in
  Alcotest.(check int)
    "magic + repr + obj + qualified magic" 4
    (count_rule Lint_rules.raw_obj fs);
  Alcotest.(check (list string)) "only R6" [ Lint_rules.raw_obj ] (rules_of fs)

let test_r6_quiet () =
  Alcotest.(check (list string)) "clean" [] (rules_of (lint "good_raw_obj.ml"))

let test_r6_sanctioned_modules () =
  (* The same cast inside a sanctioned module (keyed on basename) is the
     certified container's business, not a finding. *)
  let src = "let f (x : int) : bool = Obj.magic x\n" in
  let flagged file =
    count_rule Lint_rules.raw_obj (Lint_driver.lint_source ~file src)
  in
  Alcotest.(check int) "sanctioned in the segment" 0
    (flagged "lib/mcpool/mc_segment.ml");
  Alcotest.(check int) "sanctioned in the segment's functor copy" 0
    (flagged "lib/mcpool/mc_segment_core.ml");
  Alcotest.(check int) "sanctioned in the scheduler" 0
    (flagged "lib/analysis/sched.ml");
  Alcotest.(check int) "flagged elsewhere" 1 (flagged "lib/mcpool/mc_pool.ml")

let test_r7_fires () =
  let fs = lint "bad_poly_compare.ml" in
  Alcotest.(check int)
    "max + min + qualified max + compare as a value" 4
    (count_rule Lint_rules.poly_compare fs);
  Alcotest.(check (list string)) "only R7" [ Lint_rules.poly_compare ] (rules_of fs)

let test_r7_quiet () =
  Alcotest.(check (list string)) "clean" [] (rules_of (lint "good_poly_compare.ml"))

let test_r7_scope () =
  (* On by default in the multicore pool and the task scheduler only. *)
  let src = "let f (a : int) b = max a b\n" in
  let flagged file =
    count_rule Lint_rules.poly_compare (Lint_driver.lint_source ~file src)
  in
  Alcotest.(check int) "flagged in lib/mcpool" 1 (flagged "lib/mcpool/mc_pool.ml");
  Alcotest.(check int) "flagged in lib/tasks" 1 (flagged "lib/tasks/mc_task.ml");
  Alcotest.(check int) "off in the simulator's pool" 0 (flagged "lib/pool/pool.ml")

let test_parse_error_reported () =
  let fs = Lint_driver.lint_source ~file:"broken.ml" "let let let" in
  Alcotest.(check int) "parse error" 1 (count_rule Lint_rules.parse_error fs)

(* The acceptance bar: the shipped libraries are lint-clean (any intentional
   escape must be a documented suppression, which silences the finding). *)
let test_self_lint () =
  let lib = Filename.concat ".." "lib" in
  Alcotest.(check bool) "lib/ visible from test dir" true (Sys.file_exists lib);
  let fs = Lint_driver.lint_tree ~require_mli:true [ lib ] in
  let msg = String.concat "; " (List.map (Format.asprintf "%a" Lint_rules.pp) fs) in
  Alcotest.(check string) "lib/ lints clean" "" msg

(* Interleaving checker: every scenario must hold under every schedule, and
   each scenario must actually branch (>= 2 schedules) or it proves
   nothing. *)
let null_ppf = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let test_interleave_passes () =
  let outcomes = Interleave.run_all null_ppf in
  Alcotest.(check int) "scenario count matches the registry" Interleave.count
    (List.length outcomes);
  List.iter
    (fun (name, schedules) ->
      Alcotest.(check bool) (name ^ " explored > 1 schedule") true (schedules > 1))
    outcomes

(* Harness sanity: a deliberately racy non-atomic RMW on the shim primitives
   must be caught — two increments via set-of-get lose an update under some
   interleaving. *)
let test_interleave_catches_lost_update () =
  let module A = Sched.Prim.Atomic in
  let instance () =
    let c = A.make 0 in
    let bump () = A.set c (A.get c + 1) in
    {
      Sched.threads = [ bump; bump ];
      check_step = (fun () -> ());
      check_final =
        (fun () -> if A.get c <> 2 then failwith "lost update");
    }
  in
  match Sched.explore instance with
  | _ -> Alcotest.fail "racy RMW escaped the schedule enumeration"
  | exception Failure msg ->
    Alcotest.(check string) "the race was found" "lost update" msg

(* And the mutex shim: the same RMW under a lock is correct in every
   schedule. *)
let test_interleave_lock_protects () =
  let module A = Sched.Prim.Atomic in
  let module L = Sched.Prim.Mutex in
  let instance () =
    let c = A.make 0 in
    let m = L.create () in
    let bump () =
      L.lock m;
      A.set c (A.get c + 1);
      L.unlock m
    in
    {
      Sched.threads = [ bump; bump ];
      check_step = (fun () -> ());
      check_final = (fun () -> if A.get c <> 2 then failwith "lost update");
    }
  in
  let schedules = Sched.explore instance in
  Alcotest.(check bool) "explored" true (schedules > 1)

(* ---- scheduler failure modes ---------------------------------------- *)

let contains msg sub =
  let n = String.length msg and m = String.length sub in
  let rec find j = j + m <= n && (String.sub msg j m = sub || find (j + 1)) in
  find 0

(* A fiber locking its own held mutex can never be rescheduled: the
   explorer must report the deadlock, not hang or count the run. *)
let test_deadlock_raises () =
  let module L = Sched.Prim.Mutex in
  let instance () =
    let m = L.create () in
    let stuck () =
      L.lock m;
      L.lock m
    in
    {
      Sched.threads = [ stuck ];
      check_step = (fun () -> ());
      check_final = (fun () -> ());
    }
  in
  match Sched.explore instance with
  | _ -> Alcotest.fail "self-deadlock not detected"
  | exception Sched.Deadlock -> ()

let test_exploded_names_schedule_bound () =
  let module A = Sched.Prim.Atomic in
  let instance () =
    let a = A.make 0 and b = A.make 0 in
    let w () =
      A.set a 1;
      A.set b 1
    in
    {
      Sched.threads = [ w; w ];
      check_step = (fun () -> ());
      check_final = (fun () -> ());
    }
  in
  match Sched.explore ~mode:Sched.Exhaustive ~max_schedules:3 instance with
  | _ -> Alcotest.fail "schedule bound not enforced"
  | exception Sched.Exploded msg ->
    Alcotest.(check bool) ("bound named in: " ^ msg) true (contains msg "3")

let test_exploded_names_step_bound () =
  let module A = Sched.Prim.Atomic in
  let instance () =
    let c = A.make 0 in
    let spin () =
      for _ = 1 to 10_001 do
        A.set c 1
      done
    in
    {
      Sched.threads = [ spin ];
      check_step = (fun () -> ());
      check_final = (fun () -> ());
    }
  in
  match Sched.explore instance with
  | _ -> Alcotest.fail "step bound not enforced"
  | exception Sched.Exploded msg ->
    Alcotest.(check bool) ("bound named in: " ^ msg) true (contains msg "10000")

(* ---- DPOR vs exhaustive ---------------------------------------------- *)

(* Ground truth: on small scenarios both modes pass with DPOR strictly
   reduced; a seeded lost update fails under both. *)
let test_cross_validate () = Interleave.cross_validate null_ppf

(* The deep scenarios exist because only the reduction can enumerate them:
   each must blow a 20k-schedule exhaustive budget (their full spaces
   exceed one million) while the DPOR run in [run_all] completes. *)
let test_deep_scenarios_need_dpor () =
  List.iter
    (fun n ->
      let sc = List.find (fun s -> s.Interleave.name = n) Interleave.scenarios in
      match
        Sched.explore ~mode:Sched.Exhaustive ~max_schedules:20_000
          sc.Interleave.instance
      with
      | _ ->
        Alcotest.fail
          (n ^ " is exhaustively enumerable; it does not need the reduction")
      | exception Sched.Exploded _ -> ())
    [
      "three-way";
      "three-stealers";
      "hint-three-way";
      "spill-spill-drain";
      "transfer-thief-steal";
      "two-thieves-transfer";
    ]

(* ---- happens-before race detection ----------------------------------- *)

(* Two unsynchronized plain writes must be flagged on some explored
   interleaving. *)
let test_race_write_write () =
  let module P = Sched.Prim.Plain in
  let instance () =
    let c = P.make 0 in
    let w v () = P.set c v in
    {
      Sched.threads = [ w 1; w 2 ];
      check_step = (fun () -> ());
      check_final = (fun () -> ());
    }
  in
  match Sched.explore instance with
  | _ -> Alcotest.fail "unsynchronized plain writes escaped the race detector"
  | exception Race.Race _ -> ()

let test_race_read_write () =
  let module P = Sched.Prim.Plain in
  let instance () =
    let c = P.make 0 in
    {
      Sched.threads = [ (fun () -> P.set c 1); (fun () -> ignore (P.get c)) ];
      check_step = (fun () -> ());
      check_final = (fun () -> ());
    }
  in
  match Sched.explore instance with
  | _ -> Alcotest.fail "unsynchronized read/write pair escaped the race detector"
  | exception Race.Race _ -> ()

(* The sanctioned racy read is exempt by construction. *)
let test_racy_get_exempt () =
  let module P = Sched.Prim.Plain in
  let instance () =
    let c = P.make 0 in
    {
      Sched.threads =
        [ (fun () -> P.set c 1); (fun () -> ignore (P.racy_get c)) ];
      check_step = (fun () -> ());
      check_final = (fun () -> ());
    }
  in
  Alcotest.(check bool) "explored without a report" true
    (Sched.explore instance >= 1)

(* Mutex release/acquire edges order the protected accesses: no report, in
   any schedule. *)
let test_race_mutex_protected () =
  let module P = Sched.Prim.Plain in
  let module L = Sched.Prim.Mutex in
  let instance () =
    let c = P.make 0 in
    let m = L.create () in
    let w v () =
      L.lock m;
      P.set c v;
      L.unlock m
    in
    {
      Sched.threads = [ w 1; w 2 ];
      check_step = (fun () -> ());
      check_final = (fun () -> ());
    }
  in
  Alcotest.(check bool) "explored race-free" true (Sched.explore instance > 1)

(* Publication via an atomic flag: the write release / read acquire edge
   orders the plain accesses, and the reader's branch keeps the unordered
   path from touching the cell. *)
let test_race_atomic_publish () =
  let module P = Sched.Prim.Plain in
  let module A = Sched.Prim.Atomic in
  let instance () =
    let c = P.make 0 in
    let flag = A.make false in
    let writer () =
      P.set c 1;
      A.set flag true
    in
    let reader () = if A.get flag then ignore (P.get c) in
    {
      Sched.threads = [ writer; reader ];
      check_step = (fun () -> ());
      check_final = (fun () -> ());
    }
  in
  Alcotest.(check bool) "explored race-free" true (Sched.explore instance > 1)

(* The ring's slot array: every index is its own plain cell. *)

let test_slots_write_write () =
  let module S = Sched.Prim.Slots in
  let instance () =
    let a = S.make 4 0 in
    let w v () = S.set a 2 v in
    {
      Sched.threads = [ w 1; w 2 ];
      check_step = (fun () -> ());
      check_final = (fun () -> ());
    }
  in
  match Sched.explore instance with
  | _ -> Alcotest.fail "unsynchronized slot writes escaped the race detector"
  | exception Race.Race _ -> ()

let test_slots_read_write () =
  let module S = Sched.Prim.Slots in
  let instance () =
    let a = S.make 4 0 in
    {
      Sched.threads = [ (fun () -> S.set a 1 7); (fun () -> ignore (S.get a 1)) ];
      check_step = (fun () -> ());
      check_final = (fun () -> ());
    }
  in
  match Sched.explore instance with
  | _ -> Alcotest.fail "unsynchronized slot read/write escaped the race detector"
  | exception Race.Race _ -> ()

(* Distinct indices are distinct cells: two fibers write and read their
   own slot with nothing ordering the accesses, and no race is reported.
   The trailing atomic only gives the explorer a conflict to branch on. *)
let test_slots_distinct_indices () =
  let module S = Sched.Prim.Slots in
  let module A = Sched.Prim.Atomic in
  let instance () =
    let a = S.make 4 0 in
    let tick = A.make 0 in
    let w i () =
      S.set a i i;
      ignore (S.get a i);
      ignore (A.fetch_and_add tick 1)
    in
    {
      Sched.threads = [ w 0; w 3 ];
      check_step = (fun () -> ());
      check_final = (fun () -> ());
    }
  in
  Alcotest.(check bool) "explored race-free" true (Sched.explore instance > 1)

let test_slots_racy_get_exempt () =
  let module S = Sched.Prim.Slots in
  let instance () =
    let a = S.make 4 0 in
    {
      Sched.threads =
        [ (fun () -> S.set a 0 1); (fun () -> ignore (S.racy_get a 0)) ];
      check_step = (fun () -> ());
      check_final = (fun () -> ());
    }
  in
  Alcotest.(check bool) "explored without a report" true
    (Sched.explore instance >= 1)

(* The ring's own publication: the owner stores a slot, then publishes it
   with fetch_and_add on the cursor; a consumer that reads the cursor past
   the slot then reads the slot — ordered, so clean in every schedule. *)
let test_slots_atomic_publish () =
  let module S = Sched.Prim.Slots in
  let module A = Sched.Prim.Atomic in
  let instance () =
    let a = S.make 4 0 in
    let bottom = A.make 0 in
    let owner () =
      S.set a 0 42;
      ignore (A.fetch_and_add bottom 1)
    in
    let consumer () = if A.get bottom > 0 then ignore (S.get a 0) in
    {
      Sched.threads = [ owner; consumer ];
      check_step = (fun () -> ());
      check_final = (fun () -> ());
    }
  in
  Alcotest.(check bool) "explored race-free" true (Sched.explore instance > 1)

(* ---- linearizability oracle ------------------------------------------ *)

(* A broken steal that reads the cursor and advances it non-atomically
   hands the same element to both thieves under some schedule. Each
   individual result is locally plausible; only the oracle's global
   ordering requirement rejects the history. *)
let test_linz_catches_double_claim () =
  let module A = Sched.Prim.Atomic in
  let instance () =
    let h = Linz.create () in
    Linz.declare_seg h ~id:0 ~capacity:None;
    Linz.record h ~fiber:(-1) ~seg:0 (Linz.Add 41) (fun () -> ());
    Linz.record h ~fiber:(-1) ~seg:0 (Linz.Add 42) (fun () -> ());
    let top = A.make 0 in
    let elems = [| 41; 42 |] in
    let thief i () =
      ignore
        (Linz.record h ~fiber:i ~seg:0 Linz.Steal (fun () ->
             let t = A.get top in
             if t < 2 then begin
               A.set top (t + 1);
               [ elems.(t) ]
             end
             else []))
    in
    {
      Sched.threads = [ thief 0; thief 1 ];
      check_step = (fun () -> ());
      check_final = (fun () -> Linz.check h);
    }
  in
  match Sched.explore instance with
  | _ -> Alcotest.fail "double-handed element passed the linearizability oracle"
  | exception Linz.Not_linearizable _ -> ()

(* The same protocol done right (CAS-advanced cursor) linearizes in every
   schedule. *)
let test_linz_passes_correct_claim () =
  let module A = Sched.Prim.Atomic in
  let instance () =
    let h = Linz.create () in
    Linz.declare_seg h ~id:0 ~capacity:None;
    Linz.record h ~fiber:(-1) ~seg:0 (Linz.Add 41) (fun () -> ());
    Linz.record h ~fiber:(-1) ~seg:0 (Linz.Add 42) (fun () -> ());
    let top = A.make 0 in
    let elems = [| 41; 42 |] in
    let thief i () =
      ignore
        (Linz.record h ~fiber:i ~seg:0 Linz.Steal (fun () ->
             let rec claim () =
               let t = A.get top in
               if t >= 2 then []
               else if A.compare_and_set top t (t + 1) then [ elems.(t) ]
               else claim ()
             in
             claim ()))
    in
    {
      Sched.threads = [ thief 0; thief 1 ];
      check_step = (fun () -> ());
      check_final = (fun () -> Linz.check h);
    }
  in
  Alcotest.(check bool) "all schedules linearizable" true
    (Sched.explore instance > 1)

(* The two-segment transfer spec on sequential histories: a victim holding
   1, 2 and 3, a reservation of 1 in the thief's bounded segment, one
   transfer consuming it, then a pop from the thief's segment. The
   transfer must return an element the victim holds and bank at most
   what it reserved, and what it banks must come out of the victim. *)
let test_linz_transfer_spec () =
  let linearizable took popped =
    let h = Linz.create () in
    Linz.declare_seg h ~id:0 ~capacity:None;
    Linz.declare_seg h ~id:1 ~capacity:(Some 2);
    List.iter
      (fun x -> Linz.record h ~fiber:(-1) ~seg:0 (Linz.Add x) (fun () -> ()))
      [ 1; 2; 3 ];
    ignore (Linz.record h ~fiber:(-1) ~seg:1 (Linz.Reserve 1) (fun () -> 1) : int);
    ignore
      (Linz.record h ~fiber:(-1) ~seg:0 (Linz.Transfer (1, Some 1)) (fun () -> took)
        : (int * int) option);
    ignore (Linz.record h ~fiber:(-1) ~seg:1 Linz.Remove (fun () -> popped) : int option);
    match Linz.check h with () -> true | exception Linz.Not_linearizable _ -> false
  in
  Alcotest.(check bool) "oldest returned, 2 banked" true (linearizable (Some (1, 2)) (Some 2));
  Alcotest.(check bool) "any other element may be banked" true
    (linearizable (Some (1, 2)) (Some 3));
  Alcotest.(check bool) "an empty transfer" true (linearizable None None);
  Alcotest.(check bool) "the returned element is not banked" false
    (linearizable (Some (1, 2)) (Some 1));
  Alcotest.(check bool) "an empty transfer banks nothing" false (linearizable None (Some 2));
  Alcotest.(check bool) "an element the victim never held" false
    (linearizable (Some (9, 1)) None);
  Alcotest.(check bool) "more banked than reserved" false (linearizable (Some (1, 3)) (Some 2))

(* One text, two compilations: mc_segment.ml is [Mc_segment] against the
   hardware primitives and, as generated mc_segment_core.ml, the functor the
   checker instantiates on [Sched.Prim] (which executes directly outside a
   run). A seeded single-fiber sequence of operations must give the same
   result on both, and the same size, inbox length and invariant verdict
   for every segment after every step. The same for the hint board. *)
module type SEG = sig
  type 'a t
  type 'a took = Missed | Took of 'a * int

  val make : ?capacity:int -> id:int -> unit -> 'a t
  val size : 'a t -> int
  val add : 'a t -> 'a -> unit
  val try_add : 'a t -> 'a -> bool
  val spill_add : 'a t -> 'a -> bool
  val try_remove : 'a t -> 'a option
  val reserve : 'a t -> int -> int
  val steal_half : ?max_take:int -> 'a t -> 'a Cpool.Steal.loot
  val steal_into : ?reserved:int -> 'a t -> into:'a t -> 'a took
  val inbox_length : 'a t -> int
  val invariant_ok : 'a t -> bool
end

type seg_op =
  | Add of int
  | Try_add of int
  | Spill_add of int
  | Try_remove of int
  | Reserve of int * int
  | Steal_half of int * int option
  | Steal_into of int * int  (** victim, into; they may be equal *)

(* Segments 0 and 1 are unbounded, 2 holds at most 5. [add] ignores
   capacity, so it only targets the unbounded ones; a transfer into the
   bounded one always goes through a reservation, as [Mc_pool]'s does. *)
let seg_capacity = [| None; None; Some 5 |]

module Drive_seg (S : SEG) = struct
  (* One string per step: the operation's result, then every segment's
     size, inbox length and invariant verdict. *)
  let run ops =
    let segs = Array.mapi (fun id capacity -> S.make ?capacity ~id ()) seg_capacity in
    let held = Array.make (Array.length segs) 0 in
    let loot = function
      | Cpool.Steal.Nothing -> "nothing"
      | Cpool.Steal.Single x -> Printf.sprintf "single %d" x
      | Cpool.Steal.Batch (x, xs) ->
        "batch " ^ String.concat "," (List.map string_of_int (x :: xs))
    in
    List.mapi
      (fun v op ->
        let result =
          match op with
          | Add i ->
            S.add segs.(i) v;
            "added"
          | Try_add i -> string_of_bool (S.try_add segs.(i) v)
          | Spill_add i -> string_of_bool (S.spill_add segs.(i) v)
          | Try_remove i -> (
            match S.try_remove segs.(i) with Some x -> string_of_int x | None -> "none")
          | Reserve (i, k) ->
            let r = S.reserve segs.(i) k in
            held.(i) <- held.(i) + r;
            Printf.sprintf "reserved %d" r
          | Steal_half (i, max_take) -> loot (S.steal_half ?max_take segs.(i))
          | Steal_into (victim, i) -> (
            let reserved =
              if held.(i) > 0 || seg_capacity.(i) <> None then Some held.(i) else None
            in
            held.(i) <- 0;
            match S.steal_into ?reserved segs.(victim) ~into:segs.(i) with
            | S.Took (x, w) -> Printf.sprintf "took %d of %d" x w
            | S.Missed -> "missed")
        in
        String.concat " | "
          (result
           :: Array.to_list
                (Array.map
                   (fun s ->
                     Printf.sprintf "%d/%d/%b" (S.size s) (S.inbox_length s)
                       (S.invariant_ok s))
                   segs)))
      ops
end

module Hw_seg = Drive_seg (Cpool_mc.Mc_segment)
module Shim_seg = Drive_seg (Cpool_mc.Mc_segment_core.Make (Sched.Prim))

(* The first step at which two observation lists part, if any. *)
let first_difference a b =
  let rec go i = function
    | x :: xs, y :: ys -> if String.equal x y then go (i + 1) (xs, ys) else Some (i, x, y)
    | [], [] -> None
    | _ -> Some (i, "<ended>", "<ended>")
  in
  go 0 (a, b)

let agree name hw shim =
  match first_difference hw shim with
  | None -> true
  | Some (i, x, y) ->
    QCheck.Test.fail_reportf "%s: step %d: hardware %S, shim %S" name i x y

let seg_op_gen =
  QCheck.Gen.(
    let seg = int_bound 2 in
    frequency
      [
        (4, map (fun i -> Add (i mod 2)) seg);
        (3, map (fun i -> Try_add i) seg);
        (2, map (fun i -> Spill_add i) seg);
        (4, map (fun i -> Try_remove i) seg);
        (1, map2 (fun i k -> Reserve (i, k)) seg (int_bound 3));
        (2, map2 (fun i m -> Steal_half (i, m)) seg (opt (int_range 1 4)));
        (3, map2 (fun v i -> Steal_into (v, i)) seg seg);
      ])

let prop_segment_compilations_agree =
  QCheck.Test.make ~name:"segment: hardware and shim compilations agree" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 1 120) seg_op_gen))
    (fun ops -> agree "segment" (Hw_seg.run ops) (Shim_seg.run ops))

module type HINTS = sig
  type t
  type retract_outcome = Retracted | Claim_pending

  val create : slots:int -> unit -> t
  val waiters : t -> int
  val publish : t -> int -> unit
  val try_claim : ?order:int array -> t -> from:int -> int option
  val release : t -> int -> unit
  val retract : t -> int -> retract_outcome
  val is_published : t -> int -> bool
  val is_free : t -> int -> bool
  val published_count : t -> int
end

type hint_op =
  | Publish of int
  | Try_claim of int * bool  (** claimer, with an explicit scan order *)
  | Release of int
  | Retract of int

let hint_slots = 3

module Drive_hints (H : HINTS) = struct
  (* Each step keeps to the board's protocol: only a Free slot is
     published and only a Claimed one released. *)
  let run ops =
    let b = H.create ~slots:hint_slots () in
    List.map
      (fun op ->
        let result =
          match op with
          | Publish i ->
            if H.is_free b i then begin
              H.publish b i;
              "published"
            end
            else "skipped"
          | Try_claim (from, ordered) -> (
            let order = if ordered then Some [| 2; 0; 1 |] else None in
            match H.try_claim ?order b ~from with
            | Some w -> Printf.sprintf "claimed %d" w
            | None -> "none")
          | Release i ->
            if not (H.is_free b i || H.is_published b i) then begin
              H.release b i;
              "released"
            end
            else "skipped"
          | Retract i -> (
            match H.retract b i with
            | H.Retracted -> "retracted"
            | H.Claim_pending -> "claim pending")
        in
        String.concat " | "
          (result
           :: Printf.sprintf "%d/%d" (H.waiters b) (H.published_count b)
           :: List.init hint_slots (fun i ->
                  Printf.sprintf "%b/%b" (H.is_published b i) (H.is_free b i))))
      ops
end

module Hw_hints = Drive_hints (Cpool_mc.Mc_hints)
module Shim_hints = Drive_hints (Cpool_mc.Mc_hints_core.Make (Sched.Prim))

let hint_op_gen =
  QCheck.Gen.(
    let slot = int_bound (hint_slots - 1) in
    frequency
      [
        (3, map (fun i -> Publish i) slot);
        (3, map2 (fun i o -> Try_claim (i, o)) slot bool);
        (2, map (fun i -> Release i) slot);
        (2, map (fun i -> Retract i) slot);
      ])

let prop_hints_compilations_agree =
  QCheck.Test.make ~name:"hints: hardware and shim compilations agree" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 1 60) hint_op_gen))
    (fun ops -> agree "hints" (Hw_hints.run ops) (Shim_hints.run ops))

let suites =
  [
    ( "lint",
      [
        Alcotest.test_case "fixtures present" `Quick check_fixture_exists;
        Alcotest.test_case "R1 fires" `Quick test_r1_fires;
        Alcotest.test_case "R1 quiet" `Quick test_r1_quiet;
        Alcotest.test_case "R2 fires" `Quick test_r2_fires;
        Alcotest.test_case "R2 quiet + suppression" `Quick test_r2_quiet_and_suppressed;
        Alcotest.test_case "R3 fires" `Quick test_r3_fires;
        Alcotest.test_case "R3 quiet" `Quick test_r3_quiet;
        Alcotest.test_case "R4 fires" `Quick test_r4_fires;
        Alcotest.test_case "R4 quiet" `Quick test_r4_quiet;
        Alcotest.test_case "R4 scoped to concurrent dirs" `Quick test_r4_scope;
        Alcotest.test_case "R5 fires" `Quick test_r5_fires;
        Alcotest.test_case "R5 quiet" `Quick test_r5_quiet;
        Alcotest.test_case "R6 fires" `Quick test_r6_fires;
        Alcotest.test_case "R6 quiet + suppression" `Quick test_r6_quiet;
        Alcotest.test_case "R6 sanctioned modules" `Quick test_r6_sanctioned_modules;
        Alcotest.test_case "R7 fires" `Quick test_r7_fires;
        Alcotest.test_case "R7 quiet + suppression" `Quick test_r7_quiet;
        Alcotest.test_case "R7 scoped to mcpool and tasks" `Quick test_r7_scope;
        Alcotest.test_case "suppression needs reason" `Quick test_suppression_needs_reason;
        Alcotest.test_case "suppression unknown rule" `Quick test_suppression_unknown_rule;
        Alcotest.test_case "parse errors reported" `Quick test_parse_error_reported;
        Alcotest.test_case "self-lint: lib/ is clean" `Quick test_self_lint;
      ] );
    ( "interleave",
      [
        Alcotest.test_case "segment scenarios hold" `Quick test_interleave_passes;
        Alcotest.test_case "catches lost update" `Quick test_interleave_catches_lost_update;
        Alcotest.test_case "mutex shim protects" `Quick test_interleave_lock_protects;
        Alcotest.test_case "self-deadlock raises" `Quick test_deadlock_raises;
        Alcotest.test_case "Exploded names the schedule bound" `Quick
          test_exploded_names_schedule_bound;
        Alcotest.test_case "Exploded names the step bound" `Quick
          test_exploded_names_step_bound;
      ] );
    ( "dpor",
      [
        Alcotest.test_case "cross-validate modes" `Quick test_cross_validate;
        Alcotest.test_case "deep scenarios need the reduction" `Quick
          test_deep_scenarios_need_dpor;
      ] );
    ( "race",
      [
        Alcotest.test_case "write/write detected" `Quick test_race_write_write;
        Alcotest.test_case "read/write detected" `Quick test_race_read_write;
        Alcotest.test_case "racy_get exempt" `Quick test_racy_get_exempt;
        Alcotest.test_case "mutex-ordered accesses clean" `Quick
          test_race_mutex_protected;
        Alcotest.test_case "atomic publish clean" `Quick test_race_atomic_publish;
        Alcotest.test_case "slots: write/write detected" `Quick
          test_slots_write_write;
        Alcotest.test_case "slots: read/write detected" `Quick
          test_slots_read_write;
        Alcotest.test_case "slots: distinct indices clean" `Quick
          test_slots_distinct_indices;
        Alcotest.test_case "slots: racy_get exempt" `Quick
          test_slots_racy_get_exempt;
        Alcotest.test_case "slots: fetch_and_add publish clean" `Quick
          test_slots_atomic_publish;
      ] );
    ( "linz",
      [
        Alcotest.test_case "double claim rejected" `Quick
          test_linz_catches_double_claim;
        Alcotest.test_case "CAS claim linearizable" `Quick
          test_linz_passes_correct_claim;
        Alcotest.test_case "transfer spec" `Quick test_linz_transfer_spec;
      ] );
    ( "compile-twice",
      [
        QCheck_alcotest.to_alcotest prop_segment_compilations_agree;
        QCheck_alcotest.to_alcotest prop_hints_compilations_agree;
      ] );
  ]
