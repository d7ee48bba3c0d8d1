(** Runs the {!Lint_rules} over files and trees, applying suppressions.

    A finding is suppressed by [(* lint: allow <rule> -- <reason> *)] on the
    finding's own line or the line directly above it. A suppression without
    a reason, or naming an unknown rule, is itself a [bad-suppression]
    finding. [missing-mli] (a file-level rule) is suppressed by such a
    comment anywhere in the file. *)

val lint_source :
  ?ban_random:bool ->
  ?allow_obj:bool ->
  ?ban_poly_compare:bool ->
  file:string ->
  string ->
  Lint_rules.finding list
(** [lint_source ~file source] checks [source], applying suppressions found
    in it. [ban_random] defaults from [file]'s path: banned under
    [lib/pool], [lib/sim], [lib/mcpool] and [lib/analysis]. [allow_obj]
    defaults from [file]'s basename: raw [Obj] is sanctioned only in
    [mc_segment.ml], its generated functor copy [mc_segment_core.ml] and
    [sched.ml]. [ban_poly_compare] defaults from [file]'s path: banned
    under [lib/mcpool] and [lib/tasks]. Findings are sorted. *)

val lint_file :
  ?ban_random:bool ->
  ?allow_obj:bool ->
  ?ban_poly_compare:bool ->
  string ->
  Lint_rules.finding list
(** [lint_file path] is {!lint_source} on the contents of [path]. *)

val lint_tree : ?require_mli:bool -> string list -> Lint_rules.finding list
(** [lint_tree paths] lints every [.ml] under the given files/directories
    (skipping [_build] and dotted entries), adding the [missing-mli] check
    when [require_mli] (default [true]). *)

val report : Format.formatter -> Lint_rules.finding list -> unit
(** One finding per line, in [file:line: [rule] message] form. *)
