module Instance = Ppj_core.Instance
module Sharded = Ppj_core.Sharded
module Service = Ppj_core.Service
module Coprocessor = Ppj_scpu.Coprocessor
module Host = Ppj_scpu.Host
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
  speedup : float;
  merge : Merge.stats;
  backend : string;
  padded : int;
}

type wire_outcome = {
  tuples : Tuple.t list;
  schema : Schema.t;
  wire_per_shard_transfers : int array;
  wire_merge : Merge.stats;
  shard_retries : int;
}

let ( let* ) = Result.bind

let validate config =
  if config.p < 1 then Error "coordinator: p must be positive"
  else
    match (config.inner, config.strategy) with
    | (Service.Alg4 | Service.Alg6 _), _ -> Ok ()
    | Service.Alg5, Partitioner.Replicate -> Ok ()
    | Service.Alg8 _, Partitioner.Replicate -> Ok ()
    | ((Service.Alg5 | Service.Alg8 _) as inner), Partitioner.Hash _ ->
        (* Algorithms 5 and 8 emit result-rank slices: the trace is a
           function of the output size of the data each shard holds,
           which under hash partitioning is the data-dependent s_k no
           padding budget can hide. *)
        let name =
          match inner with Service.Alg5 -> "Algorithm 5" | _ -> "Algorithm 8"
        in
        Error
          (Printf.sprintf
             "coordinator: hash partitioning cannot keep %s oblivious; use replicate" name)
    | _, _ -> Error "coordinator: inner algorithm must be Alg4, Alg5, Alg6 or Alg8"

(* The model speedup both backends report: total transfers over the
   slowest shard's.  A fleet where no shard moved a tuple (S = 0 under
   Algorithm 5 or 6) ran no faster than one coprocessor: 1.0, not 0. *)
let speedup per_shard =
  let slowest = Array.fold_left max 0 per_shard in
  if slowest = 0 then 1.0
  else float_of_int (Array.fold_left ( + ) 0 per_shard) /. float_of_int slowest

(* --- in-process backend --------------------------------------------- *)

let run_slice config ~shard ~s inst =
  match config.strategy with
  | Partitioner.Replicate -> (
      (* work partitioning: slice [shard] of p over the full data *)
      match config.inner with
      | Service.Alg4 -> Sharded.alg4 inst ~k:shard ~p:config.p ~s
      | Service.Alg5 -> Sharded.alg5 inst ~k:shard ~p:config.p ~s
      | Service.Alg6 { eps } ->
          Sharded.alg6 inst ~k:shard ~p:config.p ~s
            ~shared_seed:(Sharded.shared_seed config.seed) ~eps
      | Service.Alg8 { attr_a; attr_b } ->
          Sharded.alg8 inst ~k:shard ~p:config.p ~attr_a ~attr_b
      | _ -> assert false)
  | Partitioner.Hash _ -> (
      (* data partitioning: the whole algorithm over this shard's bucket,
         with the global S as the public filter budget (pad-to-max) *)
      match config.inner with
      | Service.Alg4 -> Sharded.alg4 inst ~k:0 ~p:1 ~s
      | Service.Alg6 { eps } ->
          Sharded.alg6 inst ~k:0 ~p:1 ~s ~shared_seed:(Sharded.shared_seed config.seed)
            ~eps
      | _ -> assert false)

let run_local ?metrics ?backend config ~predicate rels =
  let* () = validate config in
  let* inputs = Partitioner.plan config.strategy ~p:config.p rels in
  let probe = Instance.create ~m:config.m ~seed:config.seed ~predicate rels in
  (* Coordinator screening: the public total S every shard filters
     against (untraced, like [Service.Auto]'s planner input). *)
  let s = Instance.oracle_size probe in
  let use_domains =
    (match backend with
    | Some Domains -> true
    | Some Sequential -> false
    | None -> Domains_compat.available)
    && Domains_compat.available && config.p > 1
  in
  let job (input : Partitioner.shard_input) =
    let k = input.Partitioner.shard in
    let inst =
      Instance.create ~m:config.m ~seed:(config.seed + (1000 * k)) ~predicate
        input.Partitioner.relations
    in
    (* Ambient shard label: the oblivious layer's pad gauges report
       per-shard series instead of last-writer-wins globals. *)
    Ppj_obs.Ambient.with_labels
      [ ("shard", string_of_int k) ]
      (fun () -> run_slice config ~shard:k ~s inst);
    let transfers = Coprocessor.transfers (Instance.co inst) in
    (* reported from inside the domain, through the guarded sink *)
    Option.iter (fun m -> Metrics.shard_done m ~shard:k ~transfers) metrics;
    inst
  in
  let map = if use_domains then Domains_compat.parallel_map else Array.map in
  let insts = map job inputs in
  let per_shard_transfers =
    Array.map (fun inst -> Coprocessor.transfers (Instance.co inst)) insts
  in
  let streams =
    Array.to_list insts
    |> List.map (fun inst ->
           let co = Instance.co inst in
           Host.disk (Coprocessor.host co) |> List.map (Coprocessor.decrypt_for_recipient co))
  in
  let merged, merge =
    Merge.run ~pad:(Instance.decoy probe)
      ~is_real:(fun o -> not (Decoy.is_decoy o))
      streams
  in
  let results = List.map (Instance.decode_result probe) merged in
  let speedup = speedup per_shard_transfers in
  let backend = if use_domains then "domains" else "sequential" in
  let padded = Array.fold_left (fun a i -> a + i.Partitioner.padded) 0 inputs in
  Option.iter
    (fun m ->
      Metrics.observe_outcome m ~p:config.p ~backend ~per_shard:per_shard_transfers
        ~speedup ~merge)
    metrics;
  Ok { results; per_shard_transfers; speedup; merge; backend; padded }

(* --- wire backend ---------------------------------------------------- *)

let shard_unavailable k e =
  Printf.sprintf "%s: shard %d: %s"
    (Wire.error_code_to_string Wire.Shard_unavailable)
    k e

(* One authenticated session against shard [k]; transport failures mark
   the shard unhealthy in the registry. *)
let session ~client_config ~client_registry ~shards k f =
  let* transport = Shards.connect shards k in
  let c = Client.create ~config:client_config ~registry:client_registry transport in
  match Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c) with
  | exception Transport.Closed ->
      Shards.mark_unhealthy shards k "connection closed by peer";
      Error "connection closed by peer"
  | Error e ->
      Shards.mark_unhealthy shards k e;
      Error e
  | Ok v -> Ok v

(* Surviving-coordinator retry: a fresh dial and session per attempt.  A
   shard whose coprocessor crashed resumes from its sealed checkpoint
   inside Client's own rpc retries; this path covers the shard process
   itself going away.  [f] receives the attempt number so each retry
   derives fresh handshake nonces (the server's anti-replay cache
   rejects a re-dialled hello that reuses the last ones). *)
let with_attempts ?metrics ~retries ~attempts k f =
  let rec go left =
    match f ~attempt:left with
    | Ok v -> Ok v
    | Error _ when left > 1 ->
        incr retries;
        go (left - 1)
    | Error e ->
        Option.iter (fun m -> Metrics.shard_failed m ~shard:k) metrics;
        Error (shard_unavailable k e)
  in
  go attempts

let submit_wire ?(client_config = Client.default_config)
    ?(client_registry = Ppj_obs.Registry.create ()) ?(shard_attempts = 1)
    ?(retries = ref 0) ~shards ~seed ~mac_key ~contract ~id ~schema rel =
  let session = session ~client_config ~client_registry ~shards in
  let p = Shards.p shards in
  let rec fan k =
    if k = p then Ok ()
    else
      let* () =
        with_attempts ~retries ~attempts:shard_attempts k (fun ~attempt ->
            session k (fun c ->
                Client.submit_relation c
                  ~rng:(Rng.create (seed + (7 * k) + Hashtbl.hash id + (1009 * attempt)))
                  ~id ~mac_key ~contract ~schema rel))
      in
      fan (k + 1)
  in
  fan 0

let fetch_wire ?metrics ?(client_config = Client.default_config)
    ?(client_registry = Ppj_obs.Registry.create ()) ?(shard_attempts = 1)
    ?(retries = ref 0) ~shards ~seed ~mac_key ~contract config =
  let* () = validate config in
  if config.p <> Shards.p shards then Error "coordinator: registry arity differs from p"
  else
    match config.strategy with
    | Partitioner.Hash _ ->
        (* Over the wire a hash shard would have to learn the global S it
           cannot compute from its bucket; keep the hash strategy
           in-process until the protocol carries a public budget. *)
        Error "coordinator: hash partitioning is in-process only; use replicate"
    | Partitioner.Replicate ->
        let session = session ~client_config ~client_registry ~shards in
        let drive_shard k ~attempt =
          let cfg =
            { Service.m = config.m;
              seed = config.seed;
              algorithm = Service.Sharded { k; p = config.p; inner = config.inner };
            }
          in
          session k (fun c ->
              let* () = Client.attest c in
              let* () =
                Client.handshake c
                  ~rng:(Rng.create (seed + (7 * k) + 99 + (1009 * attempt)))
                  ~id:contract.Channel.recipient ~mac_key
              in
              let* () = Client.bind_contract c contract in
              let* transfers = Client.execute c cfg in
              let* schema, tuples = Client.fetch c in
              Ok (transfers, schema, tuples))
        in
        let attempt k =
          let* v = with_attempts ?metrics ~retries ~attempts:shard_attempts k (drive_shard k) in
          Option.iter
            (fun m -> Metrics.shard_done m ~shard:k ~transfers:(let t, _, _ = v in t))
            metrics;
          Ok v
        in
        let rec fan k acc =
          if k = config.p then Ok (List.rev acc)
          else
            let* v = attempt k in
            fan (k + 1) (v :: acc)
        in
        let* per_shard = fan 0 [] in
        let schema =
          match per_shard with (_, sch, _) :: _ -> sch | [] -> assert false
        in
        let streams = List.map (fun (_, _, tuples) -> List.map Option.some tuples) per_shard in
        let merged, wire_merge = Merge.run ~pad:None ~is_real:Option.is_some streams in
        let tuples = List.filter_map Fun.id merged in
        let wire_per_shard_transfers =
          Array.of_list (List.map (fun (t, _, _) -> t) per_shard)
        in
        let speedup = speedup wire_per_shard_transfers in
        Option.iter
          (fun m ->
            Metrics.observe_outcome m ~p:config.p ~backend:"wire"
              ~per_shard:wire_per_shard_transfers ~speedup ~merge:wire_merge)
          metrics;
        Ok { tuples; schema; wire_per_shard_transfers; wire_merge; shard_retries = !retries }

let run_wire ?metrics ?client_config ?client_registry ?shard_attempts ~shards ~seed ~mac_key
    ~contract ~providers config =
  let* () = validate config in
  let retries = ref 0 in
  let rec submit_all i = function
    | [] -> Ok ()
    | (id, schema, rel) :: tl ->
        let* () =
          submit_wire ?client_config ?client_registry ?shard_attempts ~retries ~shards
            ~seed:(seed + (131 * i)) ~mac_key ~contract ~id ~schema rel
        in
        submit_all (i + 1) tl
  in
  let* () = submit_all 0 providers in
  fetch_wire ?metrics ?client_config ?client_registry ?shard_attempts ~retries ~shards ~seed
    ~mac_key ~contract config

(* --- federation ------------------------------------------------------- *)

type fleet_stats = {
  shard_infos : (int * Wire.stats_info) list;
  fleet_snapshot : Ppj_obs.Snapshot.t;
}

let stats ?(client_config = Client.default_config)
    ?(client_registry = Ppj_obs.Registry.create ()) ~shards () =
  let session = session ~client_config ~client_registry ~shards in
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
