open Cpool_workload
open Cpool_metrics

type point = { producers : int; unbalanced : float; balanced : float }

type result = { kind : Cpool.Pool.kind; points : point list }

let elements_per_steal cfg ~kind ~balanced ~producers ~seed_offset =
  let p = cfg.Exp_config.participants in
  let roles =
    if balanced then Role.balanced_producers ~participants:p ~producers
    else Role.contiguous_producers ~participants:p ~producers
  in
  let spec = Exp_config.spec cfg ~kind ~seed_offset roles in
  Driver.mean_of (fun r -> r.Driver.elements_per_steal) (Exp_config.trials cfg spec)

let run ?(kind = Cpool.Pool.Tree) cfg =
  let p = cfg.Exp_config.participants in
  let points =
    List.init (p + 1) (fun producers ->
        {
          producers;
          unbalanced =
            elements_per_steal cfg ~kind ~balanced:false ~producers ~seed_offset:(200 + producers);
          balanced =
            elements_per_steal cfg ~kind ~balanced:true ~producers ~seed_offset:(300 + producers);
        })
  in
  { kind; points }

let render r =
  let rows =
    List.map
      (fun pt ->
        [
          string_of_int pt.producers;
          Render.float_cell pt.unbalanced;
          Render.float_cell pt.balanced;
        ])
      r.points
  in
  let series name get =
    List.filter_map
      (fun pt ->
        let v = get pt in
        if Float.is_finite v then Some (float_of_int pt.producers, v) else None)
      r.points
    |> fun pts -> (name, pts)
  in
  String.concat "\n"
    [
      Printf.sprintf
        "Figure 7 -- average elements stolen per steal vs producers (%s algorithm)"
        (Cpool_intf.to_string r.kind);
      Render.table
        ~headers:[ "producers"; "unbalanced (contiguous)"; "balanced" ]
        ~rows ();
      Render.chart ~title:"Elements stolen per steal" ~x_label:"number of producers"
        ~y_label:"elements per steal"
        [ series "unbalanced" (fun p -> p.unbalanced); series "balanced" (fun p -> p.balanced) ];
    ]
