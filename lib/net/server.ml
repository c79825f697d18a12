module Channel = Ppj_scpu.Channel
module Attestation = Ppj_scpu.Attestation
module Schema = Ppj_relation.Schema
module Relation = Ppj_relation.Relation
module Predicate = Ppj_relation.Predicate
module Service = Ppj_core.Service
module Instance = Ppj_core.Instance
module Report = Ppj_core.Report
module Registry = Ppj_obs.Registry
module Recorder = Ppj_obs.Recorder
module Log = Ppj_obs.Log
module Rng = Ppj_crypto.Rng
module Store = Ppj_store.Store

type contract_state = {
  contract : Channel.contract;
  digest : string;
  submissions : (string, Schema.t * Relation.t) Hashtbl.t;  (* provider id -> *)
  mutable generation : int;
      (* bumped on every accepted submission: a join computed from an
         older generation joined inputs that are gone *)
}

type upload = {
  schema : Schema.t;
  total_chunks : int;
  parts : Buffer.t;
  mutable next_seq : int;
  mutable failed : (Wire.error_code * string) option;
      (* first chunk error, reported once at Upload_done *)
}

type phase = Expect_attest | Expect_hello | Established

(* What a join joined: the decrypted config, by digest, and the
   contract's submissions, by generation.  A cached result or a crashed
   join is reused only for the same inputs: an Execute retry with the
   same config over the same submissions is answered from cache, while a
   different config, or a provider's re-upload since, recomputes instead
   of silently serving stale tuples. *)
type inputs = { config_digest : string; generation : int }

type outcome = {
  sealed_schema : string;
  sealed_body : string;
  transfers : int;
  inputs : inputs;  (* that produced this result *)
}

type session = {
  mutable phase : phase;
  mutable party : Channel.party option;
  mutable peer_id : string;
  mutable bound : contract_state option;
  mutable upload : upload option;
  mutable result : outcome option;
  mutable crashed : (inputs * Instance.t) option;
      (* (inputs, instance) of a join whose coprocessor died mid-run:
         the client was told Unavailable, and a retry over the same
         inputs resumes this instance from its sealed checkpoint instead
         of starting over *)
  mutable ctx : Ppj_obs.Trace_ctx.t option;
      (* the trace context this session's spans run under: the one the
         client stamped into its attest request, else the server's own *)
}

type t = {
  mac_key : string;
  registry : Registry.t;
  recorder : Recorder.t option;
  home : Ppj_obs.Trace_ctx.t option;
      (* the recorder's own context, for sessions that stamped none *)
  log : Log.t;
  rng : Rng.t;
  guard : Channel.Handshake.responder;
  contracts : (string, contract_state) Hashtbl.t;  (* digest -> *)
  max_contracts : int;
  faults : Ppj_fault.Injector.t option;
  checkpoint_every : int option;
  store : Store.t option;
  mutable sessions_closed : int;
  mutable sessions_open : int;
  mutable prescrape : (unit -> unit) list;
      (* run before every stats snapshot; the reactor registers a hook
         here to refresh its queue-depth gauges without the server
         depending on it *)
  mutable pad_series : (string * string) list list;
      (* label sets of every pad gauge [publish_pad_slots] has set *)
}

let counter ?labels t name = Ppj_obs.Counter.incr (Registry.counter ?labels t.registry name)

(* Boot replay: rebuild the in-memory contract/submission tables from
   the durable store.  The store already authenticated every record; a
   body this server version cannot decode is quarantined (skipped and
   counted), never half-applied. *)
let replay_store t store =
  List.iter
    (fun (digest, body) ->
      match Wire.contract_of_string body with
      | Error e ->
          counter t "net.server.store.body_rejected";
          Log.warn t.log "durable contract rejected" ~kv:[ ("reason", e) ]
      | Ok contract ->
          let cs = { contract; digest; submissions = Hashtbl.create 4; generation = 0 } in
          List.iter
            (fun (provider, sbody) ->
              match Persist.submission_of_string sbody with
              | Error e ->
                  counter t "net.server.store.body_rejected";
                  Log.warn t.log "durable submission rejected"
                    ~kv:[ ("provider", provider); ("reason", e) ]
              | Ok (schema, relation) ->
                  Hashtbl.replace cs.submissions provider (schema, relation))
            (Store.submissions_of store digest);
          Hashtbl.replace t.contracts digest cs;
          Log.info t.log "durable contract restored"
            ~kv:[ ("submissions", string_of_int (Hashtbl.length cs.submissions)) ])
    (Store.contracts store)

let create ?registry ?recorder ?(logger = Log.null) ?(seed = 7) ?(max_contracts = 1024) ?faults
    ?checkpoint_every ?store ~mac_key () =
  let t =
    { mac_key;
      registry = (match registry with Some r -> r | None -> Registry.create ());
      recorder;
      home =
        Option.map
          (fun r ->
            Ppj_obs.Trace_ctx.make ~trace_id:(Recorder.trace_id r)
              ~span_id:Ppj_obs.Trace_ctx.root_span)
          recorder;
      log = logger;
      rng = Rng.create seed;
      guard = Channel.Handshake.responder ~capacity:4096 ();
      contracts = Hashtbl.create 8;
      max_contracts;
      faults;
      checkpoint_every;
      store;
      sessions_closed = 0;
      sessions_open = 0;
      prescrape = [];
      pad_series = [];
    }
  in
  (match store with Some s -> replay_store t s | None -> ());
  t

let registry t = t.registry

let recorder t = t.recorder

let with_span t name f =
  match t.recorder with None -> f () | Some r -> Recorder.with_span r name f

let sessions_closed t = t.sessions_closed

let sessions_active t = t.sessions_open

let add_prescrape t f = t.prescrape <- f :: t.prescrape

let open_session t =
  t.sessions_open <- t.sessions_open + 1;
  counter t "net.server.sessions.opened";
  Log.debug t.log "session opened";
  { phase = Expect_attest;
    party = None;
    peer_id = "?";
    bound = None;
    upload = None;
    result = None;
    crashed = None;
    ctx = t.home;
  }

let close_session t session =
  t.sessions_open <- Stdlib.max 0 (t.sessions_open - 1);
  t.sessions_closed <- t.sessions_closed + 1;
  Log.debug t.log "session closed" ~kv:[ ("peer", session.peer_id) ];
  counter t "net.server.sessions.closed"

let err code fmt =
  Printf.ksprintf (fun message -> [ Wire.Error { code; message } ]) fmt

(* Durable-write discipline: state-changing requests are acknowledged
   only once their record is fsynced.  A store that sealed itself
   (ENOSPC / short write) sheds those requests with a typed
   [Unavailable] — reads and already-cached results keep working. *)
let shed_if_sealed t k =
  match t.store with
  | Some s when Store.is_sealed s ->
      counter t "net.server.store.shed";
      err Wire.Unavailable "durable store sealed read-only (out of space); request shed"
  | _ -> k ()

let persisted t write k =
  match t.store with
  | None -> k ()
  | Some s -> (
      match write s with
      | Ok () -> k ()
      | Error e ->
          counter t "net.server.store.shed";
          Log.error t.log "durable append failed"
            ~kv:[ ("reason", Store.append_error_message e) ];
          err Wire.Unavailable "%s; request shed" (Store.append_error_message e))

(* --- per-message handlers ------------------------------------------- *)

let on_attest_request t session v ctx =
  if v <> Wire.version then begin
    Log.warn t.log "version mismatch" ~kv:[ ("offered", string_of_int v) ];
    err Wire.Unsupported_version "server speaks version %d, client offered %d" Wire.version v
  end
  else begin
    (* Duplicate-tolerant: a client whose reply frame was lost re-asks. *)
    if session.phase = Expect_attest then session.phase <- Expect_hello;
    (* Join the client's trace: subsequent server spans parent under the
       client's stamped span, so both processes export one tree. *)
    (match ctx with
    | Some c ->
        session.ctx <- ctx;
        Option.iter
          (fun r ->
            Recorder.adopt r c;
            Log.info t.log "trace context adopted"
              ~kv:[ ("trace_id", Ppj_obs.Trace_ctx.trace_id c) ])
          t.recorder
    | None -> ());
    [ Wire.Attest_chain (Service.attestation_chain ()) ]
  end

let on_hello t session h =
  match session.phase with
  | Expect_attest -> err Wire.Bad_state "hello before attestation fetch"
  | Established -> err Wire.Bad_state "handshake already complete"
  | Expect_hello ->
      (* One span per message, not per session: the reactor interleaves
         sessions on one recorder, so cross-message spans would nest
         arbitrarily.  The client side holds the long spans. *)
      with_span t "handshake" (fun () ->
          match Channel.Handshake.respond_guarded t.guard t.rng ~mac_key:t.mac_key h with
          | Error e ->
              Log.warn t.log "handshake rejected"
                ~kv:[ ("peer", h.Channel.Handshake.id); ("reason", e) ];
              err Wire.Auth_failed "%s" e
          | Ok (reply, party) ->
              session.party <- Some party;
              session.peer_id <- h.Channel.Handshake.id;
              session.phase <- Established;
              Log.info t.log "handshake established" ~kv:[ ("peer", session.peer_id) ];
              [ Wire.Hello_reply reply ])

let established session k =
  match (session.phase, session.party) with
  | Established, Some party -> k party
  | _ -> err Wire.Bad_state "handshake not complete"

let bound session k =
  established session (fun party ->
      match session.bound with
      | Some cs -> k party cs
      | None -> err Wire.Bad_state "no contract bound to this session")

let on_contract t session sealed =
  established session (fun party ->
      match Channel.open_sealed party sealed with
      | Error e -> err Wire.Auth_failed "contract: %s" e
      | Ok plain -> (
          match Wire.contract_of_string plain with
          | Error e -> err Wire.Malformed "contract: %s" e
          | Ok contract ->
              let id = session.peer_id in
              if
                not
                  (List.mem id contract.Channel.providers
                  || String.equal id contract.Channel.recipient)
              then err Wire.Contract_rejected "%s is neither provider nor recipient" id
              else begin
                let digest = Channel.contract_digest contract in
                match Hashtbl.find_opt t.contracts digest with
                | None when Hashtbl.length t.contracts >= t.max_contracts ->
                    err Wire.Contract_rejected "server is at its %d-contract capacity"
                      t.max_contracts
                | found ->
                    let bind cs =
                      (match session.bound with
                      | Some prev when not (String.equal prev.digest digest) ->
                          (* Rebinding resets any per-contract session state. *)
                          session.result <- None;
                          session.upload <- None;
                          session.crashed <- None
                      | _ -> ());
                      session.bound <- Some cs;
                      Log.info t.log "contract bound" ~kv:[ ("peer", session.peer_id) ];
                      [ Wire.Contract_ok ]
                    in
                    (match found with
                    | Some cs -> bind cs
                    | None ->
                        (* Registration is acknowledged only once durable. *)
                        shed_if_sealed t (fun () ->
                            persisted t
                              (fun s ->
                                Store.put_contract s ~digest (Wire.contract_to_string contract))
                              (fun () ->
                                let cs =
                                  { contract;
                                    digest;
                                    submissions = Hashtbl.create 4;
                                    generation = 0;
                                  }
                                in
                                Hashtbl.replace t.contracts digest cs;
                                counter t "net.server.contracts.registered";
                                bind cs)))
              end))

let on_upload_begin _t session ~sealed_schema ~chunks =
  bound session (fun party cs ->
      if not (List.mem session.peer_id cs.contract.Channel.providers) then
        err Wire.Contract_rejected "%s is not a provider of this contract" session.peer_id
      else if chunks < 1 then err Wire.Malformed "upload of %d chunks" chunks
      else
        match Channel.open_sealed party sealed_schema with
        | Error e -> err Wire.Auth_failed "schema: %s" e
        | Ok plain -> (
            match Wire.schema_of_string plain with
            | Error e -> err Wire.Malformed "schema: %s" e
            | Ok schema ->
                session.upload <-
                  Some
                    { schema;
                      total_chunks = chunks;
                      parts = Buffer.create 1024;
                      next_seq = 0;
                      failed = None;
                    };
                []))

let on_upload_chunk _t session ~seq ~bytes =
  match session.upload with
  | None -> err Wire.Bad_state "chunk outside an upload"
  | Some u ->
      (match u.failed with
      | Some _ -> ()  (* already failed; swallow the rest of the stream *)
      | None ->
          if seq <> u.next_seq then
            u.failed <-
              Some (Wire.Bad_state, Printf.sprintf "chunk %d arrived, expected %d" seq u.next_seq)
          else if seq >= u.total_chunks then
            u.failed <-
              Some (Wire.Bad_state, Printf.sprintf "chunk %d beyond announced %d" seq u.total_chunks)
          else begin
            Buffer.add_string u.parts bytes;
            u.next_seq <- u.next_seq + 1
          end);
      []

let on_upload_done t session =
  match session.upload with
  | None -> err Wire.Bad_state "upload-done outside an upload"
  | Some u -> (
      session.upload <- None;
      match u.failed with
      | Some (code, message) -> [ Wire.Error { code; message } ]
      | None ->
          if u.next_seq <> u.total_chunks then
            err Wire.Bad_state "upload closed after %d of %d chunks" u.next_seq u.total_chunks
          else
            bound session (fun party cs ->
                match Wire.submission_of_string (Buffer.contents u.parts) with
                | Error e -> err Wire.Malformed "submission: %s" e
                | Ok submission -> (
                    match Channel.accept party cs.contract u.schema submission with
                    | Error e -> err Wire.Auth_failed "submission: %s" e
                    | Ok relation ->
                        shed_if_sealed t (fun () ->
                            persisted t
                              (fun s ->
                                Store.put_submission s ~contract:cs.digest
                                  ~provider:session.peer_id
                                  (Persist.submission_to_string u.schema relation))
                              (fun () ->
                                (* A durable store superseded the
                                   contract's results and checkpoints as
                                   it journalled this submission; the
                                   generation does the same for the
                                   session caches. *)
                                Hashtbl.replace cs.submissions session.peer_id
                                  (u.schema, relation);
                                cs.generation <- cs.generation + 1;
                                counter t "net.server.submissions.accepted";
                                Log.info t.log "submission accepted"
                                  ~kv:
                                    [ ("peer", session.peer_id);
                                      ("chunks", string_of_int u.total_chunks)
                                    ];
                                [ Wire.Upload_ok ])))))

(* Digests are raw bytes; hex keeps the durable counter names printable
   in store-check reports and logs. *)
let hex s =
  String.concat "" (List.map (Printf.sprintf "%02x") (List.map Char.code (List.init (String.length s) (String.get s))))

let nvram_name ~contract ~config = "nvram:" ^ hex contract ^ ":" ^ hex config

(* A restarted server serving an already-computed join: the durable
   result body holds the plaintext oTuple stream, re-sealed here to this
   session's fresh ephemeral keys (the original session keys died with
   the old process). *)
let durable_result t session party cs inputs =
  match t.store with
  | None -> None
  | Some store -> (
      match Store.result store ~contract:cs.digest ~config:inputs.config_digest with
      | None -> None
      | Some body -> (
          match Persist.result_of_string body with
          | Error e ->
              counter t "net.server.store.body_rejected";
              Log.warn t.log "durable result rejected" ~kv:[ ("reason", e) ];
              None
          | Ok (schema_str, transfers, otuples) ->
              let sealed_body = Channel.seal_result party cs.contract otuples in
              let sealed_schema = Channel.seal party schema_str in
              session.result <- Some { sealed_schema; sealed_body; transfers; inputs };
              counter t "net.server.results.restored";
              Log.info t.log "durable result served" ~kv:[ ("peer", session.peer_id) ];
              Some [ Wire.Execute_ok { transfers } ]))

let durable_checkpoint t cs config_digest =
  match t.store with
  | None -> None
  | Some store -> (
      match Store.checkpoint store ~contract:cs.digest ~config:config_digest with
      | None -> None
      | Some body -> (
          let rejected reason =
            counter t "net.server.store.body_rejected";
            Log.warn t.log "durable checkpoint rejected" ~kv:[ ("reason", reason) ];
            None
          in
          match
            ( Persist.checkpoint_of_string body,
              Store.nvram store (nvram_name ~contract:cs.digest ~config:config_digest) )
          with
          | Ok image, Some nv -> Some (image, nv)
          | Error e, _ -> rejected e
          | Ok _, None -> rejected "missing nvram counter"))

(* A computed join's padding goes into the server's own registry, one
   gauge per region (and slice: [shard=k] under a [Sharded] config).  A
   series an earlier join published that this one did not pad is set to
   0, so the scrape holds the latest computed join's padding alone. *)
let publish_pad_slots t config inst =
  let shard =
    match config.Service.algorithm with
    | Service.Sharded { k; _ } -> [ ("shard", string_of_int k) ]
    | _ -> []
  in
  let latest =
    List.map
      (fun (region, n) -> (("region", Ppj_scpu.Trace.region_name region) :: shard, n))
      (Ppj_scpu.Coprocessor.pad_slots (Instance.co inst))
  in
  let stale = List.filter (fun labels -> not (List.mem_assoc labels latest)) t.pad_series in
  List.iter
    (fun (labels, n) ->
      Registry.set_gauge ~labels t.registry "oblivious.sort.pad_slots" (float_of_int n))
    (latest @ List.map (fun labels -> (labels, 0)) stale);
  t.pad_series <- List.map fst latest @ stale

let on_execute t session sealed_config =
  bound session (fun party cs ->
      if not (String.equal session.peer_id cs.contract.Channel.recipient) then
        err Wire.Contract_rejected "%s is not the contract's recipient" session.peer_id
      else
        match Channel.open_sealed party sealed_config with
        | Error e -> err Wire.Auth_failed "config: %s" e
        | Ok plain -> (
            match Wire.config_of_string plain with
            | Error e -> err Wire.Malformed "config: %s" e
            | Ok config -> (
                let config_digest = Attestation.hash plain in
                let inputs = { config_digest; generation = cs.generation } in
                match session.result with
                | Some r when r.inputs = inputs ->
                    [ Wire.Execute_ok { transfers = r.transfers } ]
                | _ ->
                match durable_result t session party cs inputs with
                | Some replies -> replies
                | None -> (
                    let missing =
                      List.filter
                        (fun p -> not (Hashtbl.mem cs.submissions p))
                        cs.contract.Channel.providers
                    in
                    if missing <> [] then
                      err Wire.Missing_submission "waiting for: %s" (String.concat ", " missing)
                    else
                      match Predicate.parse cs.contract.Channel.predicate with
                      | Error e -> err Wire.Malformed "%s" e
                      | Ok predicate -> (
                          let rels =
                            List.map
                              (fun p -> snd (Hashtbl.find cs.submissions p))
                              cs.contract.Channel.providers
                          in
                          let alg = Service.algorithm_name config.Service.algorithm in
                          let name = nvram_name ~contract:cs.digest ~config:config_digest in
                          let on_checkpoint =
                            match t.store with
                            | None -> None
                            | Some store ->
                                Some
                                  (fun ~version ~image ->
                                    (* NVRAM first: a crash between the two
                                       appends leaves the durable counter
                                       ahead of the newest checkpoint, which
                                       resume validation rejects as a
                                       rollback — quarantined and re-executed
                                       fresh, never answered wrong. *)
                                    (match Store.nvram_set store ~name version with
                                    | Ok () | Error _ -> ());
                                    match
                                      Store.put_checkpoint store ~contract:cs.digest
                                        ~config:config_digest
                                        (Persist.checkpoint_to_string image)
                                    with
                                    | Ok () | Error _ -> ())
                          in
                          let nvram_init =
                            Option.bind t.store (fun s -> Store.nvram s name)
                          in
                          let fresh () =
                            Service.execute_join ?faults:t.faults
                              ?checkpoint_every:t.checkpoint_every ?on_checkpoint ?nvram_init
                              ?recorder:t.recorder config ~predicate rels
                          in
                          match
                            Registry.span t.registry "net.server.join.seconds" (fun () ->
                                with_span t "execute" (fun () ->
                                    let inst, report =
                                      match session.crashed with
                                      | Some (crashed_inputs, inst)
                                        when crashed_inputs = inputs ->
                                          (* Same config retried after a crash:
                                             pick the join up from the last
                                             sealed checkpoint. *)
                                          Log.info t.log "resuming crashed join"
                                            ~kv:
                                              [ ("peer", session.peer_id);
                                                ("algorithm", alg)
                                              ];
                                          Service.resume_join config inst
                                      | _ -> (
                                          match durable_checkpoint t cs config_digest with
                                          | Some (image, nv) -> (
                                              (* The join that died with the old
                                                 process: rebuild the instance
                                                 from durable submissions, adopt
                                                 the persisted host image, and
                                                 resume from the sealed
                                                 checkpoint. *)
                                              let inst =
                                                Instance.create ?recorder:t.recorder
                                                  ?faults:t.faults
                                                  ?checkpoint_every:t.checkpoint_every
                                                  ?on_checkpoint ~m:config.Service.m
                                                  ~seed:(Service.coprocessor_seed config)
                                                  ~predicate rels
                                              in
                                              Instance.adopt_checkpoint inst ~image ~nvram:nv;
                                              Log.info t.log "resuming crashed join"
                                                ~kv:
                                                  [ ("peer", session.peer_id);
                                                    ("algorithm", alg);
                                                    ("source", "durable")
                                                  ];
                                              match Service.resume_join config inst with
                                              | r ->
                                                  counter t "net.server.joins.resumed_durable";
                                                  r
                                              | exception
                                                  Ppj_scpu.Coprocessor.Tamper_detected msg ->
                                                  (* Stale or doctored durable
                                                     checkpoint: quarantine it
                                                     and recompute from the
                                                     pristine inputs. *)
                                                  (match t.store with
                                                  | Some s -> (
                                                      match
                                                        Store.clear_checkpoint s
                                                          ~contract:cs.digest
                                                          ~config:config_digest
                                                      with
                                                      | Ok () | Error _ -> ())
                                                  | None -> ());
                                                  counter t
                                                    "net.server.checkpoints.quarantined";
                                                  Log.warn t.log
                                                    "durable checkpoint quarantined"
                                                    ~kv:[ ("detail", msg) ];
                                                  fresh ())
                                          | None -> fresh ())
                                    in
                                    publish_pad_slots t config inst;
                                    let otuples = report.Report.otuples in
                                    let sealed_body =
                                      Service.seal_otuples inst ~recipient:party
                                        ~contract:cs.contract otuples
                                    in
                                    let schema_str =
                                      Wire.schema_to_string (Instance.joined_schema inst)
                                    in
                                    let sealed_schema = Channel.seal party schema_str in
                                    (match t.store with
                                    | Some store -> (
                                        match
                                          Store.put_result store ~contract:cs.digest
                                            ~config:config_digest
                                            (Persist.result_to_string ~schema:schema_str
                                               ~transfers:report.Report.transfers otuples)
                                        with
                                        | Ok () | Error _ -> ())
                                    | None -> ());
                                    { sealed_schema;
                                      sealed_body;
                                      transfers = report.Report.transfers;
                                      inputs;
                                    }))
                          with
                          | result ->
                              session.crashed <- None;
                              session.result <- Some result;
                              counter t "net.server.joins.executed";
                              Log.info t.log "join executed"
                                ~kv:
                                  [ ("peer", session.peer_id);
                                    ("algorithm", alg);
                                    ("transfers", string_of_int result.transfers)
                                  ];
                              [ Wire.Execute_ok { transfers = result.transfers } ]
                          | exception Service.Join_crashed { inst; transfer } ->
                              session.crashed <- Some (inputs, inst);
                              counter t "net.server.joins.crashed";
                              Log.warn t.log "join crashed"
                                ~kv:
                                  [ ("peer", session.peer_id);
                                    ("algorithm", alg);
                                    ("transfer", string_of_int transfer)
                                  ];
                              err Wire.Unavailable
                                "coprocessor crashed at transfer %d; retry to resume" transfer
                          | exception Ppj_scpu.Coprocessor.Tamper_detected msg ->
                              (* Abort, never answer wrong: the paper's T
                                 terminates on detected tampering. *)
                              session.crashed <- None;
                              counter t "net.server.joins.tampered";
                              Log.error t.log "tamper detected"
                                ~kv:[ ("peer", session.peer_id); ("detail", msg) ];
                              err Wire.Internal "tamper detected: %s" msg
                          | exception e ->
                              Log.error t.log "join failed"
                                ~kv:[ ("peer", session.peer_id);
                                      ("error", Printexc.to_string e)
                                    ];
                              err Wire.Internal "join failed: %s" (Printexc.to_string e))))))

(* --- telemetry scrape ------------------------------------------------- *)

let int_gauge snap name =
  match Ppj_obs.Snapshot.find snap name with
  | Some { Ppj_obs.Snapshot.value = Ppj_obs.Snapshot.Gauge v; _ } -> int_of_float v
  | _ -> 0

let scrape t =
  List.iter (fun f -> f ()) t.prescrape;
  Ppj_obs.Buildinfo.stamp ~sessions_active:t.sessions_open t.registry;
  (match t.store with
  | Some s ->
      Registry.set_gauge t.registry "store.sealed" (if Store.is_sealed s then 1. else 0.);
      Registry.set_gauge t.registry "store.epoch" (float_of_int (Store.epoch s))
  | None -> ());
  let snap = Registry.snapshot t.registry in
  let store_status =
    match t.store with
    | None -> Wire.Store_none
    | Some s -> Wire.Store_open { epoch = Store.epoch s; sealed = Store.is_sealed s }
  in
  let ready =
    match t.store with Some s -> not (Store.is_sealed s) | None -> true
  in
  ( { Wire.server_version = Ppj_obs.Buildinfo.semver;
      wire_version = Wire.version;
      uptime_seconds = Ppj_obs.Buildinfo.uptime ();
      sessions_active = t.sessions_open;
      sessions_closed = t.sessions_closed;
      conns_live = int_gauge snap "net.server.conns.live";
      queue_bytes = int_gauge snap "net.server.queue.bytes";
      store = store_status;
      ready;
    },
    snap )

(* Answered in ANY phase — a scrape is admin traffic outside the join
   lifecycle: no attestation, no handshake, no session state touched.
   The reply carries only aggregate shape-public telemetry (see
   Privacy.compare_exports), so serving it unauthenticated leaks
   nothing the adversary's wire view does not already contain. *)
let on_stats t =
  counter t "net.server.stats.scrapes";
  let info, snap = scrape t in
  [ Wire.Stats_reply
      { info; snapshot = Ppj_obs.Json.to_string (Ppj_obs.Snapshot.to_json snap) }
  ]

let health_json t =
  let info, _ = scrape t in
  let status = if info.Wire.ready then "ready" else "degraded" in
  let store =
    match info.Wire.store with
    | Wire.Store_none -> "none"
    | Wire.Store_open { sealed = true; _ } -> "sealed"
    | Wire.Store_open _ -> "ok"
  in
  Ppj_obs.Json.to_string
    (Ppj_obs.Json.Obj
       [ ("status", Ppj_obs.Json.Str status);
         ("version", Ppj_obs.Json.Str info.Wire.server_version);
         ("wire_version", Ppj_obs.Json.Int info.Wire.wire_version);
         ("uptime_seconds", Ppj_obs.Json.Float info.Wire.uptime_seconds);
         ("sessions_active", Ppj_obs.Json.Int info.Wire.sessions_active);
         ("store", Ppj_obs.Json.Str store)
       ])

let on_fetch t session =
  established session (fun _party ->
      match session.result with
      | Some { sealed_schema; sealed_body; _ } ->
          Log.info t.log "result fetched"
            ~kv:
              [ ("peer", session.peer_id);
                ("bytes", string_of_int (String.length sealed_body))
              ];
          [ Wire.Result { sealed_schema; sealed_body } ]
      | None -> err Wire.Bad_state "nothing executed on this session yet")

let handle t session msg =
  match msg with
  | Wire.Attest_request { version; ctx } -> on_attest_request t session version ctx
  | Wire.Hello h -> on_hello t session h
  | Wire.Contract { sealed } -> on_contract t session sealed
  | Wire.Upload_begin { sealed_schema; chunks } -> on_upload_begin t session ~sealed_schema ~chunks
  | Wire.Upload_chunk { seq; bytes } -> on_upload_chunk t session ~seq ~bytes
  | Wire.Upload_done -> on_upload_done t session
  | Wire.Execute { sealed_config } -> on_execute t session sealed_config
  | Wire.Fetch -> on_fetch t session
  | Wire.Stats_request -> on_stats t
  | Wire.Attest_chain _ | Wire.Hello_reply _ | Wire.Contract_ok | Wire.Upload_ok
  | Wire.Execute_ok _ | Wire.Result _ | Wire.Error _ | Wire.Stats_reply _ ->
      err Wire.Bad_state "client-bound message sent to server"

let handle_frame t session frame =
  (* Sessions interleave on one recorder: put this session's trace
     context back before any of its spans open. *)
  (match (t.recorder, session.ctx) with Some r, Some c -> Recorder.adopt r c | _ -> ());
  counter t "net.server.frames.in";
  Ppj_obs.Counter.incr
    ~by:(String.length frame.Frame.payload + Frame.header_bytes)
    (Registry.counter t.registry "net.server.bytes.in");
  let replies =
    match Wire.of_frame frame with
    | Error e ->
        Registry.span
          ~labels:[ ("msg", "undecodable") ]
          t.registry "net.server.handle.seconds"
          (fun () -> err Wire.Malformed "%s" e)
    | Ok msg ->
        Registry.span
          ~labels:[ ("msg", Wire.tag_name frame.Frame.tag) ]
          t.registry "net.server.handle.seconds"
          (fun () -> handle t session msg)
  in
  List.map
    (fun reply ->
      (* Replies carry the seq of the request that produced them, so the
         client can correlate them and discard retry duplicates. *)
      let f = Wire.to_frame ~seq:frame.Frame.seq reply in
      counter t "net.server.frames.out";
      Ppj_obs.Counter.incr
        ~by:(String.length f.Frame.payload + Frame.header_bytes)
        (Registry.counter t.registry "net.server.bytes.out");
      f)
    replies
