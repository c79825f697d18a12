module Instance = Ppj_core.Instance
module Service = Ppj_core.Service
module Coprocessor = Ppj_scpu.Coprocessor
module Channel = Ppj_scpu.Channel
module Decoy = Ppj_relation.Decoy
module Tuple = Ppj_relation.Tuple
module Schema = Ppj_relation.Schema
module Relation = Ppj_relation.Relation
module Predicate = Ppj_relation.Predicate
module Rng = Ppj_crypto.Rng
module Client = Ppj_net.Client
module Wire = Ppj_net.Wire
module Transport = Ppj_net.Transport

type config = {
  p : int;
  m : int;
  seed : int;
  inner : Service.algorithm;
  strategy : Partitioner.strategy;
}

type backend = Sequential | Domains

type outcome = {
  results : Tuple.t list;
  per_shard_transfers : int array;
  per_shard_pad_slots : int array;
  speedup : float;
  merge : Merge.stats;
  backend : string;
}

type wire_outcome = {
  tuples : Tuple.t list;
  schema : Schema.t;
  wire_per_shard_transfers : int array;
  wire_merge : Merge.stats;
}

let ( let* ) = Result.bind

let validate config =
  if config.p < 1 then Error "coordinator: p must be positive"
  else
    match config.inner with
    | Service.Alg4 | Service.Alg5 | Service.Alg6 _ | Service.Alg8 _ -> Ok ()
    | _ -> Error "coordinator: inner algorithm must be Alg4, Alg5, Alg6 or Alg8"

(* The model speedup both backends report: total transfers over the
   slowest shard's.  A fleet where no shard moved a tuple (S = 0 under
   Algorithm 5 or 6) ran no faster than one coprocessor: 1.0, not 0. *)
let speedup per_shard =
  let slowest = Array.fold_left max 0 per_shard in
  if slowest = 0 then 1.0
  else float_of_int (Array.fold_left ( + ) 0 per_shard) /. float_of_int slowest

(* --- in-process backend --------------------------------------------- *)

(* Slice [k] runs exactly as a shard server runs it: one
   [Service.execute_join] of [Sharded { k; p; inner }] over the full
   relations, on its own coprocessor. *)
let slice_config config k =
  { Service.m = config.m;
    seed = config.seed;
    algorithm = Service.Sharded { k; p = config.p; inner = config.inner };
  }

let run_local ?metrics ?backend config ~predicate rels =
  let* () = validate config in
  let use_domains =
    (match backend with
    | Some Domains -> true
    | Some Sequential -> false
    | None -> Domains_compat.available)
    && Domains_compat.available && config.p > 1
  in
  (* Each job's report holds its slice's decrypted stream, decrypted in
     parallel with the other slices. *)
  let job k =
    let inst, report = Service.execute_join (slice_config config k) ~predicate rels in
    let transfers = Coprocessor.transfers (Instance.co inst) in
    (* reported from inside the domain, through the guarded sink *)
    Option.iter (fun m -> Metrics.shard_done m ~shard:k ~transfers) metrics;
    (inst, transfers, report)
  in
  let map = if use_domains then Domains_compat.parallel_map else Array.map in
  let* slices =
    match map job (Array.init config.p Fun.id) with
    | slices -> Ok slices
    | exception Ppj_core.Algorithm6.Blemished ->
        Error "coordinator: an Algorithm 6 segment overflowed memory; refused, not delivered short"
  in
  let per_shard_transfers = Array.map (fun (_, t, _) -> t) slices in
  let per_shard_pad_slots = Array.map (fun (_, _, r) -> r.Ppj_core.Report.pad_slots) slices in
  (* Pad and decoding depend on the relations' shape alone, so any
     slice's instance serves as the probe. *)
  let probe, _, _ = slices.(0) in
  let merged, merge =
    Merge.run ~pad:(Instance.decoy probe)
      ~is_real:(fun o -> not (Decoy.is_decoy o))
      (Array.to_list (Array.map (fun (_, _, r) -> r.Ppj_core.Report.otuples) slices))
  in
  let results = List.map (Instance.decode_result probe) merged in
  let speedup = speedup per_shard_transfers in
  let backend = if use_domains then "domains" else "sequential" in
  Option.iter
    (fun m ->
      Metrics.observe_outcome m ~p:config.p ~backend ~per_shard:per_shard_transfers
        ~speedup ~merge)
    metrics;
  Ok { results; per_shard_transfers; per_shard_pad_slots; speedup; merge; backend }

(* --- wire backend ---------------------------------------------------- *)

let shard_unavailable k e =
  Printf.sprintf "%s: shard %d: %s"
    (Wire.error_code_to_string Wire.Shard_unavailable)
    k e

(* One authenticated session against shard [k]; a peer that hangs up
   mid-session is an error like any other. *)
let session ~client_config ~shards k f =
  let* transport = Shards.connect shards k in
  let c = Client.create ~config:client_config transport in
  match Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c) with
  | exception Transport.Closed -> Error "connection closed by peer"
  | r -> r

(* A shard that failed: one typed refusal, counted once. *)
let on_shard ?metrics k = function
  | Ok v -> Ok v
  | Error e ->
      Option.iter (fun m -> Metrics.shard_failed m ~shard:k) metrics;
      Error (shard_unavailable k e)

let submit_wire ?(client_config = Client.default_config) ~shards ~seed ~mac_key ~contract ~id
    ~schema rel =
  let session = session ~client_config ~shards in
  let p = Shards.p shards in
  let rec fan k =
    if k = p then Ok ()
    else
      let* () =
        on_shard k
          (session k (fun c ->
               Client.submit_relation c
                 ~rng:(Rng.create (seed + (7 * k) + Hashtbl.hash id))
                 ~id ~mac_key ~contract ~schema rel))
      in
      fan (k + 1)
  in
  fan 0

let fetch_wire ?metrics ?(client_config = Client.default_config) ~shards ~seed ~mac_key ~contract
    config =
  let* () = validate config in
  if config.p <> Shards.p shards then Error "coordinator: registry arity differs from p"
  else
    let session = session ~client_config ~shards in
    let drive_shard k =
      (* every shard is sent [config.seed]; the server derives the
         slice's own coprocessor seed from it *)
      let cfg = slice_config config k in
      session k (fun c ->
          let* () = Client.attest c in
          let* () =
            Client.handshake c
              ~rng:(Rng.create (seed + (7 * k) + 99))
              ~id:contract.Channel.recipient ~mac_key
          in
          let* () = Client.bind_contract c contract in
          let* transfers = Client.execute c cfg in
          let* schema, tuples = Client.fetch c in
          Ok (transfers, schema, tuples))
    in
    let fetch_shard k =
      let* v = on_shard ?metrics k (drive_shard k) in
      Option.iter
        (fun m -> Metrics.shard_done m ~shard:k ~transfers:(let t, _, _ = v in t))
        metrics;
      Ok v
    in
    let rec fan k acc =
      if k = config.p then Ok (List.rev acc)
      else
        let* v = fetch_shard k in
        fan (k + 1) (v :: acc)
    in
    let* per_shard = fan 0 [] in
    let schema = match per_shard with (_, sch, _) :: _ -> sch | [] -> assert false in
    let streams = List.map (fun (_, _, tuples) -> List.map Option.some tuples) per_shard in
    let merged, wire_merge = Merge.run ~pad:None ~is_real:Option.is_some streams in
    let tuples = List.filter_map Fun.id merged in
    let wire_per_shard_transfers = Array.of_list (List.map (fun (t, _, _) -> t) per_shard) in
    let speedup = speedup wire_per_shard_transfers in
    Option.iter
      (fun m ->
        Metrics.observe_outcome m ~p:config.p ~backend:"wire"
          ~per_shard:wire_per_shard_transfers ~speedup ~merge:wire_merge)
      metrics;
    Ok { tuples; schema; wire_per_shard_transfers; wire_merge }

let run_wire ?metrics ?client_config ~shards ~seed ~mac_key ~contract ~providers config =
  let* () = validate config in
  let rec submit_all i = function
    | [] -> Ok ()
    | (id, schema, rel) :: tl ->
        let* () =
          submit_wire ?client_config ~shards ~seed:(seed + (131 * i)) ~mac_key ~contract ~id
            ~schema rel
        in
        submit_all (i + 1) tl
  in
  let* () = submit_all 0 providers in
  fetch_wire ?metrics ?client_config ~shards ~seed ~mac_key ~contract config

(* --- federation ------------------------------------------------------- *)

type fleet_stats = {
  shard_infos : (int * Wire.stats_info) list;
  fleet_snapshot : Ppj_obs.Snapshot.t;
}

let stats ?(client_config = Client.default_config) ~shards () =
  let session = session ~client_config ~shards in
  let p = Shards.p shards in
  (* A scrape needs no attestation and no handshake: [Stats_request] is
     answered in any session phase, so each fan-out session is just
     dial → scrape → close. *)
  let rec fan k acc =
    if k = p then Ok (List.rev acc)
    else
      match session k (fun c -> Client.stats c) with
      | Error e -> Error (shard_unavailable k e)
      | Ok (info, snap) -> fan (k + 1) ((k, info, snap) :: acc)
  in
  let* scraped = fan 0 [] in
  let shard_infos = List.map (fun (k, info, _) -> (k, info)) scraped in
  (* Two views in one snapshot.  Per-shard: every metric relabelled with
     its shard number (metrics already carrying a [shard] label — the
     oblivious pad gauges — keep theirs).  Fleet: the unlabelled
     originals merged, so counters add and reservoir histograms combine
     into fleet-wide p50/p95/p99.  The label sets are disjoint, so the
     union is collision-free. *)
  let fleet =
    List.fold_left
      (fun acc (_, _, snap) -> Ppj_obs.Snapshot.merge acc snap)
      Ppj_obs.Snapshot.empty scraped
  in
  let fleet_snapshot =
    List.fold_left
      (fun acc (k, _, snap) ->
        Ppj_obs.Snapshot.union acc
          (Ppj_obs.Snapshot.relabel ("shard", string_of_int k) snap))
      fleet scraped
  in
  Ok { shard_infos; fleet_snapshot }
