open Cpool_workload
open Cpool_metrics

type cell = { op_time : float; steal_time : float; elements_per_steal : float }

type row = { kind : Cpool.Pool.kind; counting : cell; boxed : cell }

type result = { rows : row list }

let cell_of_trials results =
  {
    op_time = Driver.mean_of (fun r -> r.Driver.op_time) results;
    steal_time = Driver.mean_of (fun r -> r.Driver.steal_time) results;
    elements_per_steal = Driver.mean_of (fun r -> r.Driver.elements_per_steal) results;
  }

let run ?(producers = 5) cfg =
  let p = cfg.Exp_config.participants in
  let roles = Role.balanced_producers ~participants:p ~producers:(min producers p) in
  let measure kind profile seed_offset =
    let cfg = { cfg with Exp_config.profile } in
    cell_of_trials (Exp_config.trials cfg (Exp_config.spec cfg ~kind ~seed_offset roles))
  in
  {
    rows =
      List.mapi
        (fun i kind ->
          {
            kind;
            counting = measure kind Cpool.Segment.Counting (1000 + i);
            boxed = measure kind Cpool.Segment.Boxed (1100 + i);
          })
        Cpool.Pool.all_kinds;
  }

(* Rankings only count as different when the algorithms' times differ by
   more than 10% — the profiles' op times are close and trial noise would
   otherwise flip ties. *)
let ranking_preserved r =
  let beats key a b = key a < key b *. 0.9 in
  let consistent a b =
    let c = (fun row -> row.counting.op_time) and x = (fun row -> row.boxed.op_time) in
    not ((beats c a b && beats x b a) || (beats c b a && beats x a b))
  in
  List.for_all (fun a -> List.for_all (consistent a) r.rows) r.rows

let render r =
  let headers =
    [ "algorithm"; "profile"; "op time us"; "steal time us"; "elems/steal" ]
  in
  let rows =
    List.concat_map
      (fun row ->
        let line name c =
          [
            Cpool_intf.to_string row.kind;
            name;
            Render.float_cell c.op_time;
            Render.float_cell c.steal_time;
            Render.float_cell c.elements_per_steal;
          ]
        in
        [ line "counting" row.counting; line "boxed" row.boxed ])
      r.rows
  in
  String.concat "\n"
    [
      "Ablation -- counting vs boxed segments (balanced p/c, 5 producers)";
      Render.table ~headers ~rows ();
      (if ranking_preserved r then
         "algorithm ranking by op time is identical under both profiles"
       else "WARNING: profiles change the algorithm ranking");
    ]
