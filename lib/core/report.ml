module Tuple = Ppj_relation.Tuple
module Decoy = Ppj_relation.Decoy
module Host = Ppj_scpu.Host
module Trace = Ppj_scpu.Trace
module Coprocessor = Ppj_scpu.Coprocessor

type t = {
  transfers : int;
  reads : int;
  writes : int;
  disk_tuples : int;
  cycles : int;
  pad_slots : int;
  otuples : string list;
  results : Tuple.t list;
  stats : (string * float) list;
  metrics : Ppj_obs.Snapshot.t;
}

let collect inst ?(stats = []) () =
  let co = Instance.co inst in
  let host = Coprocessor.host co in
  (* For crash-resume runs the cost figures cover the adversary's whole
     view, pre-crash attempts included. *)
  let trace = Instance.extended_trace inst in
  let otuples = List.map (Coprocessor.decrypt_for_recipient co) (Host.disk host) in
  let results =
    otuples
    |> List.filter (fun o -> not (Decoy.is_decoy o))
    |> List.map (Instance.decode_result inst)
  in
  let reg = Ppj_obs.Registry.create () in
  Coprocessor.observe co reg;
  Host.observe host reg;
  List.iter (fun (k, v) -> Ppj_obs.Registry.set_gauge reg ("stat." ^ k) v) stats;
  let reads = Trace.reads trace in
  { transfers = Trace.length trace;
    reads;
    writes = Trace.length trace - reads;
    disk_tuples = Host.disk_writes host;
    cycles = Coprocessor.cycles co;
    pad_slots = List.fold_left (fun n (_, k) -> n + k) 0 (Coprocessor.pad_slots co);
    otuples;
    results;
    stats;
    metrics = Ppj_obs.Registry.snapshot reg;
  }

let stat t name = List.assoc name t.stats

let pp ppf t =
  Format.fprintf ppf
    "@[<v>transfers=%d (r=%d w=%d) disk=%d cycles=%d results=%d%a@]" t.transfers t.reads
    t.writes t.disk_tuples t.cycles (List.length t.results)
    (fun ppf stats ->
      List.iter (fun (k, v) -> Format.fprintf ppf "@,%s=%g" k v) stats)
    t.stats
