type suppression = { supp_line : int; supp_rule : string; has_reason : bool }

(* Built by concatenation so this file's own source does not contain the
   marker text and trip the scanner. *)
let marker = "lint: " ^ "allow "

let is_slug_char c = (c >= 'a' && c <= 'z') || c = '-'

(* A suppression comment names the rule and a reason, e.g.
   [(* lint: allow non-atomic-rmw -- single writer during init *)]; the
   separator may be any punctuation. It silences findings of that rule on
   its own line and on the line below (so it can sit above the flagged
   expression). *)
let scan_suppressions source =
  let out = ref [] in
  let lines = String.split_on_char '\n' source in
  List.iteri
    (fun i line ->
      match
        (* no String.find_substring in the stdlib: naive scan *)
        let n = String.length line and m = String.length marker in
        let rec find j =
          if j + m > n then None
          else if String.sub line j m = marker then Some (j + m)
          else find (j + 1)
        in
        find 0
      with
      | None -> ()
      | Some start ->
        let n = String.length line in
        let fin = ref start in
        while !fin < n && is_slug_char line.[!fin] do
          incr fin
        done;
        let rule = String.sub line start (!fin - start) in
        (* A reason must follow the rule name: some word character before
           the closing of the comment. *)
        let rest = String.sub line !fin (n - !fin) in
        let rest =
          match String.index_opt rest '*' with
          | Some j when j + 1 < String.length rest && rest.[j + 1] = ')' ->
            String.sub rest 0 j
          | _ -> rest
        in
        let has_reason =
          String.exists
            (fun c ->
              (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9'))
            rest
        in
        out := { supp_line = i + 1; supp_rule = rule; has_reason } :: !out)
    lines;
  List.rev !out

let suppressed supps (f : Lint_rules.finding) =
  List.exists
    (fun s ->
      String.equal s.supp_rule f.rule
      && (s.supp_line = f.line || s.supp_line = f.line - 1))
    supps

let suppression_findings ~file supps =
  List.filter_map
    (fun s ->
      if not (List.mem s.supp_rule Lint_rules.all_rules) then
        Some
          {
            Lint_rules.file;
            line = s.supp_line;
            rule = Lint_rules.bad_suppression;
            message =
              Printf.sprintf "suppression names unknown rule %S" s.supp_rule;
          }
      else if not s.has_reason then
        Some
          {
            Lint_rules.file;
            line = s.supp_line;
            rule = Lint_rules.bad_suppression;
            message =
              "suppression carries no reason; write (* lint: "
              ^ "allow <rule> -- <why this is safe> *)";
          }
      else None)
    supps

let under dirs path =
  let has sub =
    let n = String.length path and m = String.length sub in
    let rec find j = j + m <= n && (String.sub path j m = sub || find (j + 1)) in
    find 0
  in
  List.exists has dirs

(* The directories whose randomness must be seed-threaded (R4). The checker
   itself is included: schedule enumeration must be deterministic. *)
let ban_random_for = under [ "lib/pool"; "lib/sim"; "lib/mcpool"; "lib/analysis" ]

(* The multicore pool and the task scheduler, whose hot paths must not pay
   a generic-compare C call for an int min/max (R7). *)
let ban_poly_compare_for = under [ "lib/mcpool"; "lib/tasks" ]

(* The modules sanctioned to use raw [Obj] (R6): the segment owns the
   ring's uniform-representation slots ([mc_segment.ml], and the functor
   copy [mc_segment_core.ml] generated from it in the build tree), and the
   scheduler's shims must mirror them. Matched on the basename so vendored
   copies and the test fixtures stay covered by the rule. *)
let allow_obj_for path =
  match Filename.basename path with
  | "mc_segment.ml" | "mc_segment_core.ml" | "sched.ml" -> true
  | _ -> false

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_source ?ban_random ?allow_obj ?ban_poly_compare ~file source =
  let ban_random =
    match ban_random with Some b -> b | None -> ban_random_for file
  in
  let allow_obj =
    match allow_obj with Some b -> b | None -> allow_obj_for file
  in
  let ban_poly_compare =
    match ban_poly_compare with
    | Some b -> b
    | None -> ban_poly_compare_for file
  in
  let supps = scan_suppressions source in
  let raw =
    Lint_rules.check_source ~file ~ban_random ~allow_obj ~ban_poly_compare
      source
  in
  let kept = List.filter (fun f -> not (suppressed supps f)) raw in
  List.sort Lint_rules.compare_findings (kept @ suppression_findings ~file supps)

let lint_file ?ban_random ?allow_obj ?ban_poly_compare path =
  lint_source ?ban_random ?allow_obj ?ban_poly_compare ~file:path
    (read_file path)

let is_ml path = Filename.check_suffix path ".ml"

let rec walk path acc =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc entry ->
        if String.length entry > 0 && entry.[0] = '.' then acc
        else if entry = "_build" then acc
        else walk (Filename.concat path entry) acc)
      acc
      (let entries = Sys.readdir path in
       Array.sort String.compare entries;
       entries)
  else if is_ml path then path :: acc
  else acc

let missing_mli_finding ~file supps =
  let mli = Filename.remove_extension file ^ ".mli" in
  if Sys.file_exists mli then None
  else
    let f =
      {
        Lint_rules.file;
        line = 1;
        rule = Lint_rules.missing_mli;
        message =
          "module has no .mli; every lib/ module must declare its interface";
      }
    in
    (* File-level rule: a suppression anywhere in the file applies. *)
    if List.exists (fun s -> String.equal s.supp_rule f.rule) supps then None
    else Some f

let lint_tree ?(require_mli = true) paths =
  let files =
    List.concat_map
      (fun p -> if Sys.is_directory p then List.rev (walk p []) else [ p ])
      paths
  in
  let findings =
    List.concat_map
      (fun file ->
        let source = read_file file in
        let from_source = lint_source ~file source in
        if require_mli then
          match missing_mli_finding ~file (scan_suppressions source) with
          | Some f -> f :: from_source
          | None -> from_source
        else from_source)
      files
  in
  List.sort Lint_rules.compare_findings findings

let report ppf findings =
  List.iter (fun f -> Format.fprintf ppf "%a@." Lint_rules.pp f) findings
