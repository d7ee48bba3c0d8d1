(* Dynamic task scheduling with a concurrent pool — the paper's motivating
   application shape ("the scheduling of dynamically-created tasks").

   Run with: dune exec examples/task_scheduler.exe

   A synthetic fork/join workload on the Mc_task work-stealing scheduler:
   every task burns some CPU and forks children down to a fixed depth, and
   futures join the subtree sizes back up to the root, so the awaited value
   is an end-to-end checksum of the traversal. The same workload runs on 1
   and on N domains for each pool kind; the example reports wall-clock
   speedup and steal counts, and exits non-zero if the two runs disagree on
   the checksum or on how many tasks the scheduler executed. *)

module Mc_task = Cpool_tasks.Mc_task
module Clock = Cpool_util.Clock

(* A tunable CPU burner (iterative, so the optimiser cannot remove it). *)
let burn n =
  let acc = ref 0 in
  for i = 1 to n do
    acc := (!acc * 31) + i
  done;
  Sys.opaque_identity !acc |> ignore

(* One task: burn, then fork a child per fanout slot and sum their sizes. *)
let rec subtree t ~depth ~fanout ~work =
  burn work;
  if depth = 0 then 1
  else
    let children =
      List.init fanout (fun _ ->
          Mc_task.fork t (fun () -> subtree t ~depth:(depth - 1) ~fanout ~work))
    in
    List.fold_left (fun acc f -> acc + Mc_task.await f) 1 children

(* Seed: a three-level tree, fanout 8, 585 tasks of 200k iterations. *)
let run_workload ~kind ~domains =
  let t =
    Mc_task.of_config
      { Cpool_mc.Mc_pool.Config.default with kind; segments = domains + 1 }
  in
  let since_ns = Clock.now_ns () in
  let total =
    Mc_task.await (Mc_task.fork t (fun () -> subtree t ~depth:3 ~fanout:8 ~work:200_000))
  in
  let elapsed = Clock.elapsed_s ~since_ns in
  Mc_task.shutdown t;
  (elapsed, total, Mc_task.processed t, Mc_task.steals t)

let () =
  let domains = min 8 (max 2 (Domain.recommended_domain_count ())) in
  let failures = ref 0 in
  Printf.printf "fork/join workload, 1 vs %d domains\n" domains;
  Printf.printf "%-8s %12s %12s %8s %8s %8s\n" "search" "t1 (s)" "tN (s)" "speedup"
    "tasks" "steals";
  List.iter
    (fun kind ->
      let t1, total1, tasks1, _ = run_workload ~kind ~domains:1 in
      let tn, totaln, tasksn, steals = run_workload ~kind ~domains in
      (* The task graph is deterministic: both runs must execute exactly the
         same tree. A mismatch means the scheduler lost or duplicated work. *)
      if total1 <> totaln || tasks1 <> tasksn then begin
        Printf.eprintf
          "task_scheduler: %s: 1-domain run did %d tasks (checksum %d), %d-domain \
           run did %d (checksum %d)\n"
          (Cpool_intf.to_string kind) tasks1 total1 domains tasksn totaln;
        incr failures
      end;
      Printf.printf "%-8s %12.3f %12.3f %8.2f %8d %8d\n" (Cpool_intf.to_string kind) t1
        tn (t1 /. tn) tasksn steals)
    [ Cpool_mc.Mc_pool.Linear; Cpool_mc.Mc_pool.Random; Cpool_mc.Mc_pool.Tree ];
  print_endline "(speedups depend on available cores; steals show the load balancing)";
  if !failures > 0 then exit 1
