(* The per-layer metrics of a traced run, named after the modules they
   measure.  Every traced run prints all of them; a layer the workload
   does not cross reads 0 (see NOTES.md). *)

module Snapshot = Ppj_obs.Snapshot

let rpcs = [ "attest"; "handshake"; "contract"; "upload"; "execute"; "fetch" ]

let msgs =
  [ "attest-request"; "hello"; "contract"; "upload-begin"; "upload-chunk"; "upload-done";
    "execute"; "fetch" ]

let regions = [ "table"; "cartesian"; "scratch"; "joined"; "buffer"; "output"; "disk" ]

let names =
  List.map (fun r -> ("net.rpc_ms." ^ r, "ms")) rpcs
  @ List.map (fun m -> ("net.busy_ms." ^ m, "ms")) msgs
  @ [ ("net.wait_ms", "ms"); ("net.frames_per_op", "count"); ("net.bytes_per_op", "bytes");
      ("net.retries", "count"); ("net.timeouts", "count"); ("net.shed", "count");
      ("net.evicted", "count"); ("scpu.transfer_us", "us") ]
  @ List.map (fun r -> ("scpu.region_transfers." ^ r, "count")) regions
  @ [ ("scpu.handshake_ms", "ms"); ("scpu.attest_ms", "ms");
      ("crypto.seal_ops_per_op", "count"); ("crypto.open_ops_per_op", "count");
      ("crypto.cipher_calls_per_op", "count"); ("crypto.ocb_seal_us", "us");
      ("crypto.ocb_open_us", "us"); ("oblivious.pad_slots_per_op", "count");
      ("oblivious.sort_ms", "ms"); ("oblivious.filter_ms", "ms"); ("core.instance_ms", "ms");
      ("core.join_ms", "ms"); ("core.result_ms", "ms"); ("core.seal_ms", "ms");
      ("core.open_ms", "ms"); ("core.server_join_ms", "ms"); ("store.appends_per_op", "count");
      ("store.bytes_per_user_byte", "ratio"); ("store.compactions", "count");
      ("store.append_ms", "ms"); ("store.append_p99_ms", "ms"); ("store.replay_ms", "ms");
      ("shard.screen_ms", "ms"); ("shard.slice_ms", "ms"); ("shard.merge_ms", "ms");
      ("shard.merge_comparators", "count"); ("shard.balance", "ratio");
      ("shard.speedup", "ratio"); ("shard.parallel_overhead_ms", "ms"); ("residual_ms", "ms");
      ("trace.overhead_pct", "%"); ("host.spin_ms", "ms") ]

type t = (string, float) Hashtbl.t

let create () : t =
  let t = Hashtbl.create 64 in
  List.iter (fun (n, _) -> Hashtbl.replace t n 0.) names;
  t

let set (t : t) name v =
  if not (Hashtbl.mem t name) then invalid_arg ("unknown per-layer metric " ^ name);
  Hashtbl.replace t name v

let get (t : t) name = Hashtbl.find t name

let to_metrics (t : t) = List.map (fun (n, u) -> Util.metric n u (Hashtbl.find t n)) names

(* --- reading the program's own telemetry ------------------------------ *)

let summary ?labels snap name =
  match Snapshot.find ?labels snap name with
  | Some { Snapshot.value = Snapshot.Summary s; _ } -> Some s
  | _ -> None

let p50_ms ?labels snap name =
  match summary ?labels snap name with Some s -> Util.ms s.p50 | None -> 0.

let sum_s ?labels snap name =
  match summary ?labels snap name with Some s -> s.sum | None -> 0.

(* A counter summed over all its label sets. *)
let counter snap name =
  List.fold_left
    (fun acc (m : Snapshot.metric) ->
      match m.value with
      | Snapshot.Counter c when String.equal m.name name -> acc + c
      | _ -> acc)
    0 snap

(* The lib/net metrics from the traced clients' registry and the server
   scrape, per op.  Busy time is the server's handling time per message
   type; wait is the clients' RPC time that the server was not busy. *)
let set_net t ~client ~server ~ops =
  let ops = float_of_int (max 1 ops) in
  List.iter
    (fun r ->
      set t ("net.rpc_ms." ^ r) (p50_ms ~labels:[ ("rpc", r) ] client "net.client.rpc.seconds"))
    rpcs;
  List.iter
    (fun m ->
      set t ("net.busy_ms." ^ m) (p50_ms ~labels:[ ("msg", m) ] server "net.server.handle.seconds"))
    msgs;
  let total snap name key values =
    List.fold_left (fun a v -> a +. sum_s ~labels:[ (key, v) ] snap name) 0. values
  in
  let rpc_s = total client "net.client.rpc.seconds" "rpc" rpcs in
  let busy_s = total server "net.server.handle.seconds" "msg" msgs in
  set t "net.wait_ms" (Util.ms ((rpc_s -. busy_s) /. ops));
  let per_op a b = float_of_int (counter client a + counter client b) /. ops in
  set t "net.frames_per_op" (per_op "net.client.frames.out" "net.client.frames.in");
  set t "net.bytes_per_op" (per_op "net.client.bytes.out" "net.client.bytes.in");
  set t "net.retries" (float_of_int (counter client "net.client.retries"));
  set t "net.timeouts" (float_of_int (counter client "net.client.timeouts"));
  set t "net.shed"
    (float_of_int
       (counter server "net.server.admission.shed" + counter server "net.server.overload.shed"));
  set t "net.evicted"
    (float_of_int
       (counter server "net.server.evicted.idle" + counter server "net.server.evicted.malformed"));
  set t "core.server_join_ms" (p50_ms server "net.server.join.seconds");
  (rpc_s /. ops, busy_s /. ops)
