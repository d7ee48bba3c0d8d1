type finding = { file : string; line : int; rule : string; message : string }

let raw_mutex = "raw-mutex"
let non_atomic_rmw = "non-atomic-rmw"
let blocking_under_lock = "blocking-under-lock"
let ambient_random = "ambient-random"
let raw_obj = "raw-obj"
let poly_compare = "poly-compare"
let missing_mli = "missing-mli"
let bad_suppression = "bad-suppression"
let parse_error = "parse-error"

let all_rules =
  [
    raw_mutex;
    non_atomic_rmw;
    blocking_under_lock;
    ambient_random;
    raw_obj;
    poly_compare;
    missing_mli;
    bad_suppression;
    parse_error;
  ]

let compare_findings a b =
  match String.compare a.file b.file with
  | 0 -> ( match compare a.line b.line with 0 -> String.compare a.rule b.rule | c -> c)
  | c -> c

let pp ppf f = Format.fprintf ppf "%s:%d: [%s] %s" f.file f.line f.rule f.message

(* ---- longident helpers ------------------------------------------------- *)

let ident_path (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> ( try Some (Longident.flatten txt) with _ -> None)
  | _ -> None

(* [Mutex.lock] should also match [Stdlib.Mutex.lock] and [P.Mutex.lock]:
   compare the last two path components. *)
let suffix2 path =
  match List.rev path with f :: m :: _ -> Some (m, f) | [ f ] -> Some ("", f) | [] -> None

let is_mutex_op path =
  match suffix2 path with
  | Some ("Mutex", ("lock" | "unlock")) -> true
  | _ -> false

let blocking_name path =
  match suffix2 path with
  | Some ("Mutex", "lock") -> Some "Mutex.lock"
  | Some ("Unix", ("sleep" | "sleepf")) -> Some "Unix.sleep"
  | Some ("Domain", "join") -> Some "Domain.join"
  | Some ("Condition", "wait") -> Some "Condition.wait"
  | Some ("Thread", ("delay" | "join")) -> Some "Thread.delay/join"
  | _ -> None

let starts_with_with name = String.length name >= 5 && String.sub name 0 5 = "with_"

let is_with_helper path =
  match List.rev path with name :: _ -> starts_with_with name | [] -> false

(* Ambient [Random.*] pulls from the global, self-seeding generator; only the
   explicitly seeded [Random.State] escapes the ban (minus make_self_init). *)
let ambient_random_name path =
  let rec after_random = function
    | "Random" :: rest -> Some rest
    | "Stdlib" :: rest -> after_random rest
    | _ -> None
  in
  match after_random path with
  | Some [ "State"; "make_self_init" ] -> Some "Random.State.make_self_init"
  | Some ("State" :: _) -> None
  | Some [ f ] -> Some ("Random." ^ f)
  | Some _ | None -> None

(* ---- the AST pass ------------------------------------------------------ *)

let has_suffix2 e m f =
  match ident_path e with
  | Some p -> ( match suffix2 p with Some (m', f') -> m = m' && f = f' | None -> false)
  | None -> false

let expr_to_string e =
  try Format.asprintf "%a" Pprintast.expression e with _ -> "<unprintable>"

(* A "blind" stored value: a literal constant or (possibly constant-carrying)
   constructor — the shape of a check-then-act reset like
   [Atomic.set flag false] after a read of [flag]. Computed values are judged
   by the taint rule instead, so an unrelated store such as
   [Atomic.set t x] stays out of the order-aware check. *)
let rec is_blind_store (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constant _ -> true
  | Pexp_construct (_, None) -> true
  | Pexp_construct (_, Some arg) -> is_blind_store arg
  | Pexp_tuple es -> List.for_all is_blind_store es
  | _ -> false

(* First arguments of every [compare_and_set] under [item], pretty-printed:
   the atomics this structure item already drives through the CAS-retry
   idiom. A target on this list is exempt from R2 — the item demonstrably
   knows the retry discipline for that atomic, so a plain store next to the
   loop (the publish after a won race, the reset on the fallback arm) is a
   deliberate choice, not an overlooked lost update. This is what keeps the
   lock-free segment's claim loops clean without blanket suppressions. *)
let cas_targets_in (item : Parsetree.structure_item) =
  let acc = ref [] in
  let super = Ast_iterator.default_iterator in
  let expr it (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_apply (f, (_, arg) :: _)
      when (match ident_path f with
           | Some p -> ( match suffix2 p with Some (_, "compare_and_set") -> true | _ -> false)
           | None -> false) ->
      acc := expr_to_string arg :: !acc
    | _ -> ());
    super.expr it e
  in
  let it = { super with expr } in
  it.structure_item it item;
  List.sort_uniq String.compare !acc

(* Which atomics does [value] read? Targets are compared by pretty-printed
   form (identical source prints identically). [lookup] resolves an
   identifier to the targets its let-binding read — the taint environment,
   so a get split from its set by an intermediate binding still registers. *)
let targets_read_by ~lookup value =
  let acc = ref [] in
  let super = Ast_iterator.default_iterator in
  let expr it (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_apply (f, (_, arg) :: _) when has_suffix2 f "Atomic" "get" ->
      acc := expr_to_string arg :: !acc
    | Pexp_ident { txt = Longident.Lident name; _ } -> acc := lookup name @ !acc
    | _ -> ());
    super.expr it e
  in
  let it = { super with expr } in
  it.expr it value;
  List.sort_uniq String.compare !acc

(* R6: the unsafe [Obj] trio. [Obj.magic] is never sanctioned; [repr]/[obj]
   only inside the modules that own a uniform-representation container (the
   ring's [Obj.t] slots) and are certified by the interleave scenarios. *)
let raw_obj_name path =
  match suffix2 path with
  | Some ("Obj", (("magic" | "repr" | "obj") as fn)) -> Some ("Obj." ^ fn)
  | _ -> None

(* R7: Stdlib's polymorphic ordering functions, bare or [Stdlib.]-qualified.
   [min]/[max] are ordinary functions over the polymorphic comparison, so
   they call the generic C compare even on ints; [compare] does whenever
   its type is not known at the call site. *)
let poly_compare_name path =
  match path with
  | [ (("min" | "max" | "compare") as fn) ]
  | [ "Stdlib"; (("min" | "max" | "compare") as fn) ] ->
    Some fn
  | _ -> None

let check_structure ~file ~ban_random ~allow_obj ~ban_poly_compare
    (str : Parsetree.structure) =
  let findings = ref [] in
  let add (loc : Location.t) rule message =
    findings :=
      { file; line = loc.loc_start.Lexing.pos_lnum; rule; message } :: !findings
  in
  (* Lexically enclosing let-binding names: raw Mutex.lock/unlock is legal
     only inside a [with_*] helper, the one place allowed to speak to the
     mutex directly. *)
  let bindings = ref [] in
  (* > 0 while visiting a literal (fun ...) argument of a with_* call: a
     critical section whose body must not block. *)
  let critical = ref 0 in
  let in_with_helper () = List.exists starts_with_with !bindings in
  (* R2 taint environment: innermost-first [(variable, atomics its binding
     read)]. A fresh binding masks an outer one, tainted or not. *)
  let taint : (string * string list) list ref = ref [] in
  let lookup_taint name =
    match List.assoc_opt name !taint with Some ts -> ts | None -> []
  in
  (* R2 order pass: atomics already [Atomic.get]-read earlier in the current
     function body, in traversal (= source) order. Scoped to the innermost
     [fun]: a get inside a spawned closure does not order against a set in
     the enclosing body, and vice versa — crossing that boundary is a
     different program point in time, not a get-then-set window. *)
  let seen_gets : string list ref = ref [] in
  (* Atomics the current structure item drives via [compare_and_set]. *)
  let cas_sanctioned : string list ref = ref [] in
  let super = Ast_iterator.default_iterator in
  let check_ident (e : Parsetree.expression) =
    match ident_path e with
    | None -> ()
    | Some path ->
      if is_mutex_op path && not (in_with_helper ()) then
        add e.pexp_loc raw_mutex
          "raw Mutex.lock/unlock outside a with_* helper; route the critical \
           section through an exception-safe with_lock-style wrapper";
      if !critical > 0 then begin
        (match blocking_name path with
        | Some name ->
          add e.pexp_loc blocking_under_lock
            (Printf.sprintf
               "blocking call %s inside a with_* critical section risks deadlock; \
                move it outside the lock"
               name)
        | None -> ());
        if is_with_helper path then
          add e.pexp_loc blocking_under_lock
            "nested lock acquisition (with_* call) inside a with_* critical \
             section risks deadlock; restructure to decide under one lock"
      end;
      (if ban_random then
         match ambient_random_name path with
         | Some name ->
           add e.pexp_loc ambient_random
             (Printf.sprintf
                "%s draws from ambient global state; all randomness here must flow \
                 through a seeded generator (Cpool_util.Rng / Cpool_sim.Rng)"
                name)
         | None -> ());
      (if not allow_obj then
         match raw_obj_name path with
         | Some name ->
           add e.pexp_loc raw_obj
             (Printf.sprintf
                "%s defeats the type system outside the sanctioned \
                 uniform-representation modules (mc_segment, mc_segment_core, \
                 sched); keep unsafe casts behind their certified boundaries \
                 or suppress with (* lint: allow raw-obj -- <reason> *)"
                name)
         | None -> ());
      if ban_poly_compare then
        match poly_compare_name path with
        | Some name ->
          let cost =
            if name = "compare" then "wherever its type is not fixed at the call site"
            else "on every use, even on ints"
          in
          add e.pexp_loc poly_compare
            (Printf.sprintf
               "polymorphic %s calls the generic structural comparison (a C \
                call) %s; use Int.%s or the element type's own function, or \
                suppress with (* lint: allow poly-compare -- <reason> *)"
               name cost name)
        | None -> ()
  in
  let expr (it : Ast_iterator.iterator) (e : Parsetree.expression) =
    check_ident e;
    match e.pexp_desc with
    | Pexp_let (_, vbs, body) ->
      (* Visit the bindings under the outer taint, then the body with each
         [let x = ...Atomic.get t...] recorded as x tainted by t. *)
      List.iter (fun vb -> it.value_binding it vb) vbs;
      let added =
        List.filter_map
          (fun (vb : Parsetree.value_binding) ->
            match vb.pvb_pat.ppat_desc with
            | Ppat_var { txt; _ } ->
              Some (txt, targets_read_by ~lookup:lookup_taint vb.pvb_expr)
            | _ -> None)
          vbs
      in
      let saved = !taint in
      taint := added @ !taint;
      it.expr it body;
      taint := saved
    | Pexp_fun _ | Pexp_function _ ->
      let saved = !seen_gets in
      seen_gets := [];
      super.expr it e;
      seen_gets := saved
    | Pexp_apply (f, args) ->
      (match args with
      | (_, arg) :: _ when has_suffix2 f "Atomic" "get" ->
        seen_gets := expr_to_string arg :: !seen_gets
      | _ -> ());
      (if has_suffix2 f "Atomic" "set" then
         match args with
         | (_, target) :: (_, value) :: _ ->
           let tstr = expr_to_string target in
           if not (List.mem tstr !cas_sanctioned) then begin
             let reads = targets_read_by ~lookup:lookup_taint value in
             if List.mem tstr reads then
               add e.pexp_loc non_atomic_rmw
                 "non-atomic read-modify-write: Atomic.set of a value derived from \
                  Atomic.get of the same atomic (possibly via intermediate \
                  let-bindings); use fetch_and_add / compare_and_set or suppress \
                  with (* lint: allow non-atomic-rmw -- <reason> *)"
             else if is_blind_store value && List.mem tstr !seen_gets then
               add e.pexp_loc non_atomic_rmw
                 "racy get-then-set: this function reads the atomic with \
                  Atomic.get and later overwrites it with a constant, so a \
                  concurrent update between the two steps is silently lost; \
                  use Atomic.exchange or a compare_and_set retry loop, or \
                  suppress with (* lint: allow non-atomic-rmw -- <reason> *)"
           end
         | _ -> ());
      let callee_is_with =
        match ident_path f with Some p -> is_with_helper p | None -> false
      in
      it.expr it f;
      List.iter
        (fun (_, (a : Parsetree.expression)) ->
          match a.pexp_desc with
          | (Pexp_fun _ | Pexp_function _) when callee_is_with ->
            incr critical;
            it.expr it a;
            decr critical
          | _ -> it.expr it a)
        args
    | _ -> super.expr it e
  in
  let value_binding it (vb : Parsetree.value_binding) =
    match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt; _ } ->
      bindings := txt :: !bindings;
      super.value_binding it vb;
      bindings := List.tl !bindings
    | _ -> super.value_binding it vb
  in
  let structure_item it (si : Parsetree.structure_item) =
    (* Per-item R2 state: prescan the item for CAS-driven atomics, start the
       get-order pass fresh. Nested items (module bodies) rescan for their
       own, narrower window — expressions only ever live in leaf items. *)
    cas_sanctioned := cas_targets_in si;
    seen_gets := [];
    super.structure_item it si
  in
  let it = { super with expr; value_binding; structure_item } in
  it.structure it str;
  List.rev !findings

let check_source ~file ~ban_random ~allow_obj ~ban_poly_compare source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf file;
  match Parse.implementation lexbuf with
  | str -> check_structure ~file ~ban_random ~allow_obj ~ban_poly_compare str
  | exception e ->
    let line =
      match e with
      | Syntaxerr.Error err -> (Syntaxerr.location_of_error err).loc_start.pos_lnum
      | _ -> 1
    in
    [ { file; line; rule = parse_error; message = Printexc.to_string e } ]
