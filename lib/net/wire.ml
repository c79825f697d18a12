module Channel = Ppj_scpu.Channel
module Attestation = Ppj_scpu.Attestation
module Schema = Ppj_relation.Schema
module Service = Ppj_core.Service
module Codec = Ppj_crypto.Codec
module W = Codec.W
module R = Codec.R

(* v3 added the optional trace context on [Attest_request]; the decoder
   still accepts the bare v2 payload (version only, no context).  v4
   added the [Stats_request]/[Stats_reply] admin exchange (tags 16/17);
   every older payload decodes unchanged. *)
let version = 4

(* --- control-plane records ------------------------------------------ *)

let contract_to_string (c : Channel.contract) =
  Codec.encode (fun b ->
      W.str b c.contract_id;
      W.list b W.str c.providers;
      W.str b c.recipient;
      W.str b c.predicate)

let contract_of_string s =
  Codec.decode s (fun r ->
      let contract_id = R.str r in
      let providers = R.list r R.str in
      let recipient = R.str r in
      let predicate = R.str r in
      { Channel.contract_id; providers; recipient; predicate })

let schema_to_string schema =
  Codec.encode (fun b ->
      W.list b
        (fun b (f : Schema.field) ->
          W.str b f.name;
          match f.ty with
          | Schema.TInt -> W.u8 b 0
          | Schema.TStr w ->
              W.u8 b 1;
              W.u16 b w
          | Schema.TSet c ->
              W.u8 b 2;
              W.u16 b c)
        (Schema.fields schema))

let schema_of_string s =
  Codec.decode s (fun r ->
      Schema.make
        (R.list r (fun r ->
             let name = R.str r in
             let ty =
               match R.u8 r with
               | 0 -> Schema.TInt
               | 1 -> Schema.TStr (R.u16 r)
               | 2 -> Schema.TSet (R.u16 r)
               | k -> R.fail "unknown field kind %d" k
             in
             { Schema.name; ty })))

let rec algorithm_to b (a : Service.algorithm) =
  match a with
  | Service.Sharded { k; p; inner } ->
      W.u8 b 9;
      W.vint b k;
      W.vint b p;
      algorithm_to b inner
  | Service.Alg1 { n } ->
      W.u8 b 1;
      W.vint b n
  | Service.Alg2 { n } ->
      W.u8 b 2;
      W.vint b n
  | Service.Alg3 { n; attr_a; attr_b } ->
      W.u8 b 3;
      W.vint b n;
      W.str b attr_a;
      W.str b attr_b
  | Service.Alg4 -> W.u8 b 4
  | Service.Alg5 -> W.u8 b 5
  | Service.Alg6 { eps } ->
      W.u8 b 6;
      W.f64 b eps
  | Service.Alg7 { attr_a; attr_b } ->
      W.u8 b 7;
      W.str b attr_a;
      W.str b attr_b
  | Service.Auto { max_eps } ->
      W.u8 b 8;
      W.f64 b max_eps
  | Service.Alg8 { attr_a; attr_b } ->
      W.u8 b 10;
      W.str b attr_a;
      W.str b attr_b

let rec algorithm_of r : Service.algorithm =
  match R.u8 r with
  | 9 ->
      let k = R.vint r in
      let p = R.vint r in
      (* One level of nesting only: a sharded job's slice is a base
         algorithm, never another sharding. *)
      let inner = algorithm_of r in
      (match inner with
      | Service.Sharded _ -> R.fail "nested sharded algorithm"
      | _ -> Service.Sharded { k; p; inner })
  | 1 -> Service.Alg1 { n = R.vint r }
  | 2 -> Service.Alg2 { n = R.vint r }
  | 3 ->
      let n = R.vint r in
      let attr_a = R.str r in
      let attr_b = R.str r in
      Service.Alg3 { n; attr_a; attr_b }
  | 4 -> Service.Alg4
  | 5 -> Service.Alg5
  | 6 -> Service.Alg6 { eps = R.f64 r }
  | 7 ->
      let attr_a = R.str r in
      let attr_b = R.str r in
      Service.Alg7 { attr_a; attr_b }
  | 8 -> Service.Auto { max_eps = R.f64 r }
  | 10 ->
      let attr_a = R.str r in
      let attr_b = R.str r in
      Service.Alg8 { attr_a; attr_b }
  | k -> R.fail "unknown algorithm tag %d" k

let config_to_string (c : Service.config) =
  Codec.encode (fun b ->
      W.vint b c.m;
      W.vint b c.seed;
      algorithm_to b c.algorithm)

let config_of_string s =
  Codec.decode s (fun r ->
      let m = R.vint r in
      let seed = R.vint r in
      let algorithm = algorithm_of r in
      { Service.m; seed; algorithm })

let submission_to_string (s : Channel.submission) =
  Codec.encode (fun b ->
      W.str b s.sender;
      W.str b s.nonce;
      W.str b s.ciphertext)

let submission_of_string s =
  Codec.decode s (fun r ->
      let sender = R.str r in
      let nonce = R.str r in
      let ciphertext = R.str r in
      { Channel.sender; nonce; ciphertext })

let upload_chunk_bytes = 1024

let upload_chunks body =
  let n = String.length body in
  List.init
    (max 1 ((n + upload_chunk_bytes - 1) / upload_chunk_bytes))
    (fun seq ->
      let off = seq * upload_chunk_bytes in
      String.sub body off (min upload_chunk_bytes (n - off)))

(* --- messages ------------------------------------------------------- *)

type error_code =
  | Unsupported_version
  | Bad_state
  | Auth_failed
  | Contract_rejected
  | Missing_submission
  | Malformed
  | Internal
  | Unavailable
  | Shard_unavailable

let error_code_to_string = function
  | Unsupported_version -> "unsupported-version"
  | Bad_state -> "bad-state"
  | Auth_failed -> "auth-failed"
  | Contract_rejected -> "contract-rejected"
  | Missing_submission -> "missing-submission"
  | Malformed -> "malformed"
  | Internal -> "internal"
  | Unavailable -> "unavailable"
  | Shard_unavailable -> "shard-unavailable"

let error_code_to_int = function
  | Unsupported_version -> 1
  | Bad_state -> 2
  | Auth_failed -> 3
  | Contract_rejected -> 4
  | Missing_submission -> 5
  | Malformed -> 6
  | Internal -> 7
  | Unavailable -> 8
  | Shard_unavailable -> 9

let error_code_of_int = function
  | 1 -> Unsupported_version
  | 2 -> Bad_state
  | 3 -> Auth_failed
  | 4 -> Contract_rejected
  | 5 -> Missing_submission
  | 6 -> Malformed
  | 8 -> Unavailable
  | 9 -> Shard_unavailable
  | _ -> Internal

(* Durable-state health as seen by a scrape: no store configured, or a
   store at some epoch that may have sealed itself read-only. *)
type store_status = Store_none | Store_open of { epoch : int; sealed : bool }

type stats_info = {
  server_version : string;
  wire_version : int;
  uptime_seconds : float;
  sessions_active : int;
  sessions_closed : int;
  conns_live : int;
  queue_bytes : int;
  store : store_status;
  ready : bool;
}

type msg =
  | Attest_request of { version : int; ctx : Ppj_obs.Trace_ctx.t option }
  | Attest_chain of Attestation.certificate list
  | Hello of Channel.Handshake.hello
  | Hello_reply of Channel.Handshake.reply
  | Contract of { sealed : string }
  | Contract_ok
  | Upload_begin of { sealed_schema : string; chunks : int }
  | Upload_chunk of { seq : int; bytes : string }
  | Upload_done
  | Upload_ok
  | Execute of { sealed_config : string }
  | Execute_ok of { transfers : int }
  | Fetch
  | Result of { sealed_schema : string; sealed_body : string }
  | Error of { code : error_code; message : string }
  | Stats_request
  | Stats_reply of { info : stats_info; snapshot : string }

let tag_of = function
  | Attest_request _ -> 1
  | Attest_chain _ -> 2
  | Hello _ -> 3
  | Hello_reply _ -> 4
  | Contract _ -> 5
  | Contract_ok -> 6
  | Upload_begin _ -> 7
  | Upload_chunk _ -> 8
  | Upload_done -> 9
  | Upload_ok -> 10
  | Execute _ -> 11
  | Execute_ok _ -> 12
  | Fetch -> 13
  | Result _ -> 14
  | Error _ -> 15
  | Stats_request -> 16
  | Stats_reply _ -> 17

let tag_name = function
  | 1 -> "attest-request"
  | 2 -> "attest-chain"
  | 3 -> "hello"
  | 4 -> "hello-reply"
  | 5 -> "contract"
  | 6 -> "contract-ok"
  | 7 -> "upload-begin"
  | 8 -> "upload-chunk"
  | 9 -> "upload-done"
  | 10 -> "upload-ok"
  | 11 -> "execute"
  | 12 -> "execute-ok"
  | 13 -> "fetch"
  | 14 -> "result"
  | 15 -> "error"
  | 16 -> "stats-request"
  | 17 -> "stats-reply"
  | t -> Printf.sprintf "tag-%d" t

let to_frame ?(seq = 0) msg =
  let payload =
    match msg with
    | Attest_request { version; ctx } ->
        Codec.encode (fun b ->
            W.u16 b version;
            match ctx with
            | None -> W.u8 b 0
            | Some c ->
                W.u8 b 1;
                W.str b (Ppj_obs.Trace_ctx.trace_id c);
                W.str b (Ppj_obs.Trace_ctx.span_id c))
    | Attest_chain certs ->
        Codec.encode (fun b ->
            W.list b
              (fun b (c : Attestation.certificate) ->
                W.str b c.name;
                W.str b c.code_digest;
                W.str b c.mac)
              certs)
    | Hello h ->
        Codec.encode (fun b ->
            W.str b h.Channel.Handshake.id;
            W.u32 b h.Channel.Handshake.gx;
            W.str b h.Channel.Handshake.mac)
    | Hello_reply r ->
        Codec.encode (fun b ->
            W.u32 b r.Channel.Handshake.gy;
            W.str b r.Channel.Handshake.mac)
    | Contract { sealed } -> Codec.encode (fun b -> W.str b sealed)
    | Contract_ok -> ""
    | Upload_begin { sealed_schema; chunks } ->
        Codec.encode (fun b ->
            W.str b sealed_schema;
            W.u32 b chunks)
    | Upload_chunk { seq; bytes } ->
        Codec.encode (fun b ->
            W.u32 b seq;
            W.str b bytes)
    | Upload_done -> ""
    | Upload_ok -> ""
    | Execute { sealed_config } -> Codec.encode (fun b -> W.str b sealed_config)
    | Execute_ok { transfers } -> Codec.encode (fun b -> W.vint b transfers)
    | Fetch -> ""
    | Result { sealed_schema; sealed_body } ->
        Codec.encode (fun b ->
            W.str b sealed_schema;
            W.str b sealed_body)
    | Error { code; message } ->
        Codec.encode (fun b ->
            W.u8 b (error_code_to_int code);
            W.str b message)
    | Stats_request -> ""
    | Stats_reply { info; snapshot } ->
        Codec.encode (fun b ->
            W.str b info.server_version;
            W.u16 b info.wire_version;
            W.f64 b info.uptime_seconds;
            W.vint b info.sessions_active;
            W.vint b info.sessions_closed;
            W.vint b info.conns_live;
            W.vint b info.queue_bytes;
            (match info.store with
            | Store_none -> W.u8 b 0
            | Store_open { epoch; sealed } ->
                W.u8 b 1;
                W.vint b epoch;
                W.u8 b (if sealed then 1 else 0));
            W.u8 b (if info.ready then 1 else 0);
            W.str b snapshot)
  in
  { Frame.tag = tag_of msg; seq; payload }

let of_frame { Frame.tag; payload; _ } =
  let dec f = Codec.decode payload f in
  match tag with
  | 1 ->
      dec (fun r ->
          let version = R.u16 r in
          let ctx =
            (* A bare v2 payload ends after the version. *)
            if R.at_end r then None
            else
              match R.u8 r with
              | 0 -> None
              | 1 -> (
                  let trace_id = R.str r in
                  let span_id = R.str r in
                  match Ppj_obs.Trace_ctx.of_strings ~trace_id ~span_id with
                  | Ok c -> Some c
                  | Error m -> R.fail "%s" m)
              | k -> R.fail "bad trace-context flag %d" k
          in
          Attest_request { version; ctx })
  | 2 ->
      dec (fun r ->
          Attest_chain
            (R.list r (fun r ->
                 let name = R.str r in
                 let code_digest = R.str r in
                 let mac = R.str r in
                 { Attestation.name; code_digest; mac })))
  | 3 ->
      dec (fun r ->
          let id = R.str r in
          let gx = R.u32 r in
          let mac = R.str r in
          Hello { Channel.Handshake.id; gx; mac })
  | 4 ->
      dec (fun r ->
          let gy = R.u32 r in
          let mac = R.str r in
          Hello_reply { Channel.Handshake.gy; mac })
  | 5 -> dec (fun r -> Contract { sealed = R.str r })
  | 6 -> dec (fun _ -> Contract_ok)
  | 7 ->
      dec (fun r ->
          let sealed_schema = R.str r in
          let chunks = R.u32 r in
          Upload_begin { sealed_schema; chunks })
  | 8 ->
      dec (fun r ->
          let seq = R.u32 r in
          let bytes = R.str r in
          Upload_chunk { seq; bytes })
  | 9 -> dec (fun _ -> Upload_done)
  | 10 -> dec (fun _ -> Upload_ok)
  | 11 -> dec (fun r -> Execute { sealed_config = R.str r })
  | 12 -> dec (fun r -> Execute_ok { transfers = R.vint r })
  | 13 -> dec (fun _ -> Fetch)
  | 14 ->
      dec (fun r ->
          let sealed_schema = R.str r in
          let sealed_body = R.str r in
          Result { sealed_schema; sealed_body })
  | 15 ->
      dec (fun r ->
          let code = error_code_of_int (R.u8 r) in
          let message = R.str r in
          Error { code; message })
  | 16 -> dec (fun _ -> Stats_request)
  | 17 ->
      dec (fun r ->
          let server_version = R.str r in
          let wire_version = R.u16 r in
          let uptime_seconds = R.f64 r in
          let sessions_active = R.vint r in
          let sessions_closed = R.vint r in
          let conns_live = R.vint r in
          let queue_bytes = R.vint r in
          let store =
            match R.u8 r with
            | 0 -> Store_none
            | 1 ->
                let epoch = R.vint r in
                let sealed = R.u8 r = 1 in
                Store_open { epoch; sealed }
            | k -> R.fail "bad store-status flag %d" k
          in
          let ready = R.u8 r = 1 in
          let snapshot = R.str r in
          Stats_reply
            { info =
                { server_version;
                  wire_version;
                  uptime_seconds;
                  sessions_active;
                  sessions_closed;
                  conns_live;
                  queue_bytes;
                  store;
                  ready;
                };
              snapshot;
            })
  | t -> Result.Error (Printf.sprintf "unknown message tag %d" t)

let pp ppf msg =
  let f = to_frame msg in
  Format.fprintf ppf "%s[%dB]" (tag_name f.Frame.tag) (String.length f.Frame.payload)
