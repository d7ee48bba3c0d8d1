open Cpool_workload
open Cpool_metrics

type cell = {
  add_time : float;
  remove_time : float;
  steal_time : float;
  steal_fraction : float;
  segments_per_steal : float;
  elements_per_steal : float;
}

type row = { producers : int; unbalanced : cell; balanced : cell }

type result = { kind : Cpool.Pool.kind; rows : row list }

let cell_of_trials results =
  let fractions = List.filter Float.is_finite (List.map Driver.steal_fraction results) in
  {
    add_time = Driver.mean_of (fun r -> r.Driver.add_time) results;
    remove_time = Driver.mean_of (fun r -> r.Driver.remove_time) results;
    steal_time = Driver.mean_of (fun r -> r.Driver.steal_time) results;
    steal_fraction =
      (match fractions with
      | [] -> Float.nan
      | _ -> List.fold_left ( +. ) 0.0 fractions /. float_of_int (List.length fractions));
    segments_per_steal = Driver.mean_of (fun r -> r.Driver.segments_per_steal) results;
    elements_per_steal = Driver.mean_of (fun r -> r.Driver.elements_per_steal) results;
  }

let measure cfg ~kind ~balanced ~producers ~seed_offset =
  let p = cfg.Exp_config.participants in
  let roles =
    if balanced then Role.balanced_producers ~participants:p ~producers
    else Role.contiguous_producers ~participants:p ~producers
  in
  cell_of_trials (Exp_config.trials cfg (Exp_config.spec cfg ~kind ~seed_offset roles))

let run ?(kind = Cpool.Pool.Linear) ?producer_counts cfg =
  let p = cfg.Exp_config.participants in
  let producer_counts =
    match producer_counts with
    | Some cs -> cs
    | None -> List.init (p - 1) (fun i -> i + 1)
  in
  {
    kind;
    rows =
      List.map
        (fun producers ->
          {
            producers;
            unbalanced =
              measure cfg ~kind ~balanced:false ~producers ~seed_offset:(800 + producers);
            balanced = measure cfg ~kind ~balanced:true ~producers ~seed_offset:(900 + producers);
          })
        producer_counts;
  }

let balanced_wins r =
  List.fold_left
    (fun (wins, total) row ->
      if Float.is_finite row.unbalanced.remove_time && Float.is_finite row.balanced.remove_time
      then
        ( (if row.balanced.remove_time < row.unbalanced.remove_time *. 0.99 then wins + 1
           else wins),
          total + 1 )
      else (wins, total))
    (0, 0) r.rows

let render r =
  let headers =
    [ "producers"; "arrangement"; "add us"; "remove us"; "steal us"; "% removes stealing";
      "segs/steal"; "elems/steal" ]
  in
  let cell_row producers name c =
    [
      string_of_int producers;
      name;
      Render.float_cell c.add_time;
      Render.float_cell c.remove_time;
      Render.float_cell c.steal_time;
      Render.float_cell (100.0 *. c.steal_fraction);
      Render.float_cell c.segments_per_steal;
      Render.float_cell c.elements_per_steal;
    ]
  in
  let rows =
    List.concat_map
      (fun row ->
        [
          cell_row row.producers "contiguous" row.unbalanced;
          cell_row row.producers "balanced" row.balanced;
        ])
      r.rows
  in
  let wins, total = balanced_wins r in
  String.concat "\n"
    [
      Printf.sprintf "Section 4.2 -- balancing the producers (%s algorithm)"
        (Cpool_intf.to_string r.kind);
      Render.table ~headers ~rows ();
      Printf.sprintf
        "balanced arrangement lowered mean remove time (>1%%) at %d of %d producer counts" wins
        total;
    ]
