module Channel = Ppj_scpu.Channel
module Schema = Ppj_relation.Schema
module Relation = Ppj_relation.Relation
module Tuple = Ppj_relation.Tuple
module Service = Ppj_core.Service
module Registry = Ppj_obs.Registry
module Recorder = Ppj_obs.Recorder

type config = {
  recv_timeout : float;
  max_retries : int;
  backoff_base : float;
  backoff_cap : float;
  backoff_seed : int;
  sleep : float -> unit;
}

let default_config =
  { recv_timeout = 2.0;
    max_retries = 3;
    backoff_base = 0.05;
    backoff_cap = 2.0;
    backoff_seed = 0;
    sleep = Unix.sleepf;
  }

type t = {
  transport : Transport.t;
  config : config;
  backoff_rng : Ppj_crypto.Rng.t;
  registry : Registry.t;
  recorder : Recorder.t option;
  decoder : Frame.Decoder.t;
  mutable party : Channel.party option;
  mutable contract : Channel.contract option;
  mutable next_seq : int;  (* seq stamped on the next outbound frame *)
  mutable last_done : int;
      (* seq of the newest concluded request: any reply at or below it is
         a stale duplicate (a retried RPC whose first reply was slow, not
         lost) and must be dropped, not handed to the next RPC *)
}

let create ?(config = default_config) ?registry ?recorder transport =
  let backoff_rng =
    (* seed 0 asks for per-process entropy — the whole point of the
       jitter is that a fleet of clients retrying the same outage does
       not re-synchronise into thundering herds.  A nonzero seed pins
       the schedule for tests and load experiments. *)
    let seed =
      if config.backoff_seed <> 0 then config.backoff_seed
      else 1 + (Hashtbl.hash (Unix.getpid (), Unix.gettimeofday ()) land 0x3FFFFFFF)
    in
    Ppj_crypto.Rng.split (Ppj_crypto.Rng.create seed) "client-backoff"
  in
  { transport;
    config;
    backoff_rng;
    registry = (match registry with Some r -> r | None -> Registry.create ());
    recorder;
    decoder = Frame.Decoder.create ();
    party = None;
    contract = None;
    next_seq = 1;
    last_done = 0;
  }

let registry t = t.registry

let recorder t = t.recorder

(* The client drives the session sequentially, so — unlike the server's
   reactor, which interleaves sessions — it can safely hold spans across
   several round trips ("handshake" covers attest + hello, "upload" the
   whole chunk stream). *)
let with_span t ?attrs name f =
  match t.recorder with None -> f () | Some r -> Recorder.with_span r ?attrs name f

let count ?by t name = Ppj_obs.Counter.incr ?by (Registry.counter t.registry name)

let alloc_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let send_seq t ~seq msg =
  let f = Wire.to_frame ~seq msg in
  count t "net.client.frames.out";
  count ~by:(String.length f.Frame.payload + Frame.header_bytes) t "net.client.bytes.out";
  t.transport.Transport.send (Frame.encode f)

let send t msg = send_seq t ~seq:(alloc_seq t) msg

(* Pump transport chunks through the decoder until one whole frame is out
   or the deadline passes.  The loopback transport's [recv] never waits,
   so a dropped reply times out instantly — retry tests run with zero
   real sleeping (the backoff [sleep] is injected too). *)
let recv_frame t ~deadline =
  let rec go () =
    match Frame.Decoder.next t.decoder with
    | Error e -> Error (`Garbage e)
    | Ok (Some frame) ->
        count t "net.client.frames.in";
        count ~by:(String.length frame.Frame.payload + Frame.header_bytes) t
          "net.client.bytes.in";
        Ok frame
    | Ok None -> (
        let remaining = deadline -. Unix.gettimeofday () in
        if remaining <= 0. then Error `Timeout
        else
          match t.transport.Transport.recv ~timeout:remaining with
          | None -> Error `Timeout
          | Some bytes ->
              Frame.Decoder.feed t.decoder bytes;
              go ())
  in
  go ()

(* Wait for a reply to a live request.  The server echoes the request
   seq in every reply, so a frame at or below [last_done] is a duplicate
   of an already-concluded exchange (a retried RPC whose first reply was
   slow rather than lost) — drop it and keep waiting.  Anything above
   [last_done] is live: either the current RPC's reply or an [Error]
   answering a streamed upload frame, both surfaced to the caller. *)
let recv_reply t =
  let deadline = Unix.gettimeofday () +. t.config.recv_timeout in
  let rec go () =
    match recv_frame t ~deadline with
    | Error _ as e -> e
    | Ok frame ->
        if frame.Frame.seq > t.last_done then Ok frame
        else begin
          count t "net.client.stale.dropped";
          go ()
        end
  in
  go ()

(* One request/reply exchange.  Only steps the server handles
   idempotently (attest, contract, execute, fetch) are retried; the
   others fail on the first lost reply rather than risk double effect.
   Retransmissions reuse the request's seq, so however many duplicate
   replies a retried RPC provokes, all of them share one seq and are
   swept aside once that seq concludes. *)
(* The sleep before the next retry, given the previous one ([0.] before
   the first, which makes the first exactly [backoff_base]): the
   AWS-style decorrelated jitter [min cap (uniform base (prev * 3))] —
   successive sleeps are randomised {e and} de-correlated from other
   clients', so a shared outage does not produce synchronised retry
   waves. *)
let next_sleep t prev =
  let lo = t.config.backoff_base in
  let hi = max lo (prev *. 3.) in
  min t.config.backoff_cap (lo +. Ppj_crypto.Rng.float t.backoff_rng (hi -. lo))

let rpc t ~name ~idempotent msg =
  Registry.span ~labels:[ ("rpc", name) ] t.registry "net.client.rpc.seconds" (fun () ->
      let seq = alloc_seq t in
      let conclude r =
        t.last_done <- max t.last_done seq;
        r
      in
      let retry tries prev_sleep k =
        let s = next_sleep t prev_sleep in
        count t "net.client.retries";
        t.config.sleep s;
        k (tries + 1) s
      in
      let rec attempt tries prev_sleep =
        match
          send_seq t ~seq msg;
          recv_reply t
        with
        | exception Transport.Closed -> conclude (Error (name ^ ": connection closed by peer"))
        | Error (`Garbage e) ->
            conclude (Error (Printf.sprintf "%s: undecodable reply: %s" name e))
        | Error `Timeout ->
            count t "net.client.timeouts";
            if idempotent && tries < t.config.max_retries then retry tries prev_sleep attempt
            else
              conclude (Error (Printf.sprintf "%s: no reply after %d attempt(s)" name (tries + 1)))
        | Ok frame -> (
            match Wire.of_frame frame with
            | Error e -> conclude (Error (Printf.sprintf "%s: %s" name e))
            | Ok (Wire.Error { code = Wire.Unavailable; message = _ })
              when idempotent && tries < t.config.max_retries ->
                (* Transient server-side failure (e.g. the coprocessor
                   crashed and will resume from its checkpoint): retry
                   under the same seq and backoff schedule as a lost
                   reply. *)
                count t "net.client.unavailable";
                retry tries prev_sleep attempt
            | Ok (Wire.Error { code; message }) ->
                conclude
                  (Error
                     (Printf.sprintf "%s: server error [%s]: %s" name
                        (Wire.error_code_to_string code) message))
            | Ok reply -> conclude (Ok reply))
      in
      attempt 0 0.)

let unexpected name msg = Error (Format.asprintf "%s: unexpected reply %a" name Wire.pp msg)

let with_party t k =
  match t.party with
  | Some party -> k party
  | None -> Error "client: handshake not complete"

let attest t =
  (* Stamp this client's trace context into the first frame of the
     session: the server adopts it, so its spans join our trace. *)
  let ctx = Option.map Recorder.ctx t.recorder in
  match rpc t ~name:"attest" ~idempotent:true (Wire.Attest_request { version = Wire.version; ctx }) with
  | Ok (Wire.Attest_chain chain) ->
      if Service.verify_chain chain then Ok ()
      else Error "attest: chain failed verification against the trusted layer digests"
  | Ok m -> unexpected "attest" m
  | Error _ as e -> e

let stats t =
  match rpc t ~name:"stats" ~idempotent:true Wire.Stats_request with
  | Ok (Wire.Stats_reply { info; snapshot }) -> (
      match Ppj_obs.Json.of_string snapshot with
      | Error e -> Error (Printf.sprintf "stats: undecodable snapshot JSON: %s" e)
      | Ok json -> (
          match Ppj_obs.Snapshot.of_json json with
          | Error e -> Error (Printf.sprintf "stats: %s" e)
          | Ok snap -> Ok (info, snap)))
  | Ok m -> unexpected "stats" m
  | Error _ as e -> e

let handshake t ~rng ~id ~mac_key =
  let hello, exponent = Channel.Handshake.hello rng ~id ~mac_key in
  match rpc t ~name:"handshake" ~idempotent:false (Wire.Hello hello) with
  | Ok (Wire.Hello_reply reply) -> (
      match Channel.Handshake.finish ~id ~mac_key ~exponent reply with
      | Ok party ->
          t.party <- Some party;
          Ok ()
      | Error _ as e -> e)
  | Ok m -> unexpected "handshake" m
  | Error _ as e -> e

let bind_contract t contract =
  with_party t (fun party ->
      let sealed = Channel.seal party (Wire.contract_to_string contract) in
      match rpc t ~name:"contract" ~idempotent:true (Wire.Contract { sealed }) with
      | Ok Wire.Contract_ok ->
          t.contract <- Some contract;
          Ok ()
      | Ok m -> unexpected "contract" m
      | Error _ as e -> e)

let upload t ~schema relation =
  with_party t (fun party ->
      match t.contract with
      | None -> Error "client: no contract bound"
      | Some contract ->
          let body = Wire.submission_to_string (Channel.submit party contract relation) in
          let pieces = Wire.upload_chunks body in
          let chunks = List.length pieces in
          let sealed_schema = Channel.seal party (Wire.schema_to_string schema) in
          with_span t ~attrs:[ ("chunks", Recorder.int chunks) ] "upload" (fun () ->
              send t (Wire.Upload_begin { sealed_schema; chunks });
              List.iteri (fun seq bytes -> send t (Wire.Upload_chunk { seq; bytes })) pieces;
              match rpc t ~name:"upload" ~idempotent:false Wire.Upload_done with
              | Ok Wire.Upload_ok -> Ok ()
              | Ok m -> unexpected "upload" m
              | Error _ as e -> e))

let execute t config =
  with_party t (fun party ->
      let sealed_config = Channel.seal party (Wire.config_to_string config) in
      with_span t
        ~attrs:[ ("algorithm", Recorder.sym (Service.algorithm_name config.Service.algorithm)) ]
        "execute"
        (fun () ->
          match rpc t ~name:"execute" ~idempotent:true (Wire.Execute { sealed_config }) with
          | Ok (Wire.Execute_ok { transfers }) -> Ok transfers
          | Ok m -> unexpected "execute" m
          | Error _ as e -> e))

let ( let* ) = Result.bind

let fetch t =
  with_party t (fun party ->
      match t.contract with
      | None -> Error "client: no contract bound"
      | Some contract ->
          with_span t "fetch" (fun () ->
              match rpc t ~name:"fetch" ~idempotent:true Wire.Fetch with
              | Ok (Wire.Result { sealed_schema; sealed_body }) ->
                  let* plain = Channel.open_sealed party sealed_schema in
                  let* schema = Wire.schema_of_string plain in
                  let* tuples =
                    Service.open_delivery ~schema ~recipient:party ~contract sealed_body
                  in
                  Ok (schema, tuples)
              | Ok m -> unexpected "fetch" m
              | Error _ as e -> e))

let close t = t.transport.Transport.close ()

(* The handshake span covers attest + hello: together they are the
   "establish a channel with an attested service" step of §3.3.3. *)
let establish t ~rng ~id ~mac_key =
  with_span t "handshake" (fun () ->
      let* () = attest t in
      handshake t ~rng ~id ~mac_key)

let submit_relation t ~rng ~id ~mac_key ~contract ~schema relation =
  let* () = establish t ~rng ~id ~mac_key in
  let* () = bind_contract t contract in
  upload t ~schema relation

let fetch_result t ~rng ~id ~mac_key ~contract config =
  let* () = establish t ~rng ~id ~mac_key in
  let* () = bind_contract t contract in
  let* _transfers = execute t config in
  fetch t
