(* Concurrency-discipline static analyzer + interleaving checker for the
   pool layers.

   Examples:
     pools_lint                      # lint lib/ (the default)
     pools_lint check lib bin
     pools_lint check --require-mli=false test/lint_fixtures
     pools_lint interleave           # model-check Mc_segment schedules (DPOR)
     pools_lint interleave --count   # print the scenario count and exit
     pools_lint dpor-stats           # DPOR vs exhaustive schedule counts
     pools_lint rules                # describe the rules

   Exit codes: 0 clean, 1 findings or invariant violations, 2 usage errors
   (unknown subcommand, bad flags, nonexistent paths). *)

open Cmdliner

let paths =
  let doc = "Files or directories to lint (default: $(b,lib))." in
  Arg.(value & pos_all string [ "lib" ] & info [] ~docv:"PATH" ~doc)

let require_mli =
  let doc = "Require a .mli next to every linted .ml (rule missing-mli)." in
  Arg.(value & opt bool true & info [ "require-mli" ] ~docv:"BOOL" ~doc)

let run_check paths require_mli =
  match List.filter (fun p -> not (Sys.file_exists p)) paths with
  | missing ->
    if missing <> [] then begin
      (* A path that does not exist is a usage error, not a lint finding:
         keep exit 1 meaning "the code has problems". *)
      Format.eprintf "pools_lint: no such file or directory: %s@."
        (String.concat ", " missing);
      Format.eprintf "Usage: pools_lint [check] [--require-mli=BOOL] [PATH]...@.";
      2
    end
    else begin
      match Cpool_analysis.Lint_driver.lint_tree ~require_mli paths with
      | [] ->
        Format.printf "pools_lint: clean (%s)@." (String.concat ", " paths);
        0
      | findings ->
        Cpool_analysis.Lint_driver.report Format.std_formatter findings;
        Format.printf "pools_lint: %d finding(s)@." (List.length findings);
        1
    end

let check_term = Term.(const run_check $ paths $ require_mli)

let check_cmd =
  let doc = "Lint sources against the concurrency-discipline rules R1-R7." in
  Cmd.v (Cmd.info "check" ~doc) check_term

let count_only =
  let doc = "Print the number of scenarios and exit (for CI to derive its \
             expectations from, instead of hard-coding the count)." in
  Arg.(value & flag & info [ "count" ] ~doc)

let run_interleave count_only =
  if count_only then begin
    Format.printf "%d@." Cpool_analysis.Interleave.count;
    0
  end
  else
    match Cpool_analysis.Interleave.run_all Format.std_formatter with
    | outcomes ->
      let total = List.fold_left (fun acc (_, n) -> acc + n) 0 outcomes in
      Format.printf
        "pools_lint interleave: %d scenarios, %d schedules, all invariants hold@."
        (List.length outcomes) total;
      0
    | exception Failure msg ->
      Format.eprintf "pools_lint interleave: FAILED: %s@." msg;
      1

let interleave_cmd =
  let doc =
    "Model-check 2-4 thread interleavings of the real Mc_segment code \
     (shimmed Atomic/Mutex/Plain, DPOR-reduced DFS over labelled yield \
     points) and check the capacity, conservation, linearizability and \
     race-freedom properties under every schedule."
  in
  Cmd.v (Cmd.info "interleave" ~doc) Term.(const run_interleave $ count_only)

let exhaustive_cap =
  let doc = "Schedule bound for the exhaustive ground-truth runs; scenarios \
             past it report EXPLODED." in
  Arg.(value & opt int 1_000_000 & info [ "exhaustive-cap" ] ~docv:"N" ~doc)

let run_dpor_stats cap =
  match
    Cpool_analysis.Interleave.cross_validate Format.std_formatter;
    Cpool_analysis.Interleave.dpor_stats ~exhaustive_cap:cap ()
  with
  | stats ->
    Format.printf "@.%-18s %10s %10s %12s %10s@." "scenario" "dpor" "pruned"
      "exhaustive" "ratio";
    List.iter
      (fun (s : Cpool_analysis.Interleave.stat) ->
        match s.exhaustive with
        | Some ex ->
          Format.printf "%-18s %10d %10d %12d %9.1fx@." s.s_name s.dpor
            s.dpor_pruned ex
            (float_of_int ex /. float_of_int (max 1 s.dpor))
        | None ->
          Format.printf "%-18s %10d %10d %12s %10s@." s.s_name s.dpor
            s.dpor_pruned
            (Printf.sprintf ">%d" cap)
            "EXPLODED")
      stats;
    let reduced =
      List.for_all
        (fun (s : Cpool_analysis.Interleave.stat) ->
          match s.exhaustive with Some ex -> s.dpor < ex | None -> true)
        stats
    in
    if not reduced then begin
      Format.eprintf
        "pools_lint dpor-stats: FAILED: DPOR explored at least as many \
         schedules as the exhaustive DFS on some scenario@.";
      1
    end
    else 0
  | exception Failure msg ->
    Format.eprintf "pools_lint dpor-stats: FAILED: %s@." msg;
    1

let dpor_stats_cmd =
  let doc =
    "Cross-validate the DPOR reduction against the exhaustive DFS (verdicts \
     must agree, including on a seeded bug) and print per-scenario schedule \
     counts with reduction ratios."
  in
  Cmd.v (Cmd.info "dpor-stats" ~doc) Term.(const run_dpor_stats $ exhaustive_cap)

let run_rules () =
  List.iter print_endline
    [
      "raw-mutex            R1: Mutex.lock/unlock only inside with_* helpers";
      "non-atomic-rmw       R2: no Atomic.set x (... Atomic.get x ...), and no \
       get-then-set-constant in one function body; use \
       fetch_and_add/compare_and_set/exchange (CAS-retry loops are the \
       sanctioned idiom)";
      "blocking-under-lock  R3: no blocking call inside a with_* critical section";
      "ambient-random       R4: no global Random.* in lib/pool, lib/sim, \
       lib/mcpool, lib/analysis";
      "missing-mli          R5: every lib/ module declares an .mli";
      "raw-obj              R6: no Obj.magic/Obj.repr/Obj.obj outside the \
       sanctioned uniform-representation modules (mc_segment and its \
       generated functor copy mc_segment_core, sched)";
      "poly-compare         R7: no polymorphic min/max/compare (bare or \
       Stdlib.) in lib/mcpool, lib/tasks; use Int.min/Int.max/Int.compare";
      "bad-suppression      suppression comments need a known rule and a reason";
      "";
      "Suppress a finding on its line or the line below, naming the rule";
      "and a reason:  (* lint: allow non-atomic-rmw -- single writer *)";
    ];
  0

let rules_cmd =
  let doc = "List the lint rules and the suppression-comment syntax." in
  Cmd.v (Cmd.info "rules" ~doc) Term.(const run_rules $ const ())

let () =
  let info =
    Cmd.info "pools_lint" ~version:"%%VERSION%%"
      ~doc:"Static analyzer and interleaving checker for the concurrent pools"
  in
  (* Usage problems (unknown subcommand, malformed flags) exit 2, distinct
     from exit 1 = "the analysis found something". *)
  exit
    (Cmd.eval' ~term_err:2
       (Cmd.group ~default:check_term info
          [ check_cmd; interleave_cmd; dpor_stats_cmd; rules_cmd ]))
