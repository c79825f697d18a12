(* Layer probes, timed from the benchmark around public functions at each
   workload's own shapes, and the in-process replay of one computed
   join that splits its time across lib/core's steps. *)

module Instance = Ppj_core.Instance
module Service = Ppj_core.Service
module Coprocessor = Ppj_scpu.Coprocessor
module Host = Ppj_scpu.Host
module Trace = Ppj_scpu.Trace
module Channel = Ppj_scpu.Channel
module Ocb = Ppj_crypto.Ocb
module Sort = Ppj_oblivious.Sort
module Filter = Ppj_oblivious.Filter
module Decoy = Ppj_relation.Decoy
module Store = Ppj_store.Store
module Registry = Ppj_obs.Registry
module Snapshot = Ppj_obs.Snapshot

let median_of k f = Util.median (List.init k (fun _ -> snd (Util.timed f)))

let pad_slots_total () =
  Layers.counter (Registry.snapshot Registry.default) "oblivious.sort.pad_slots_total"

(* --- lib/core: one computed join, step by step ------------------------ *)

type replica = {
  instance_ms : float;
  join_ms : float;
  result_ms : float;
  seal_ms : float;
  open_ms : float;
  transfers : int;
  seal_ops : int;
  open_ops : int;
  slot_bytes : int;  (** mean sealed plaintext per transfer *)
  regions : (string * int) list;  (** transfers per region family *)
  pad_slots : int;
  otuples : string list;  (** the decrypted result stream *)
  delivered : Ppj_relation.Tuple.t list;
}

let replica ~m ~seed ~run rels =
  let pad0 = pad_slots_total () in
  let inst, t_inst =
    Util.timed (fun () -> Instance.create ~m ~seed ~predicate:Oracle.predicate rels)
  in
  let (), t_join = Util.timed (fun () -> run inst) in
  let pad_slots = pad_slots_total () - pad0 in
  let otuples, t_result = Util.timed (fun () -> Service.result_otuples inst) in
  let contract = Inputs.contract "replica" in
  let party = Channel.party ~id:contract.Channel.recipient ~secret:(String.make 16 'c') in
  let sealed, t_seal =
    Util.timed (fun () -> Service.seal_otuples inst ~recipient:party ~contract otuples)
  in
  let opened, t_open =
    Util.timed (fun () ->
        Service.open_delivery ~schema:(Instance.joined_schema inst) ~recipient:party ~contract
          sealed)
  in
  let reg = Registry.create () in
  Coprocessor.observe (Instance.co inst) reg;
  let snap = Registry.snapshot reg in
  let family name =
    match String.index_opt name ':' with Some i -> String.sub name 0 i | None -> name
  in
  let regions =
    List.filter_map
      (fun (mt : Snapshot.metric) ->
        match (mt.value, List.assoc_opt "region" mt.labels) with
        | Snapshot.Counter c, Some r when mt.name = "scpu.region.transfers" -> Some (family r, c)
        | _ -> None)
      snap
  in
  let c = Layers.counter snap in
  { instance_ms = Util.ms t_inst;
    join_ms = Util.ms t_join;
    result_ms = Util.ms t_result;
    seal_ms = Util.ms t_seal;
    open_ms = Util.ms t_open;
    transfers = c "scpu.transfers";
    seal_ops = c "crypto.seal.ops";
    open_ops = c "crypto.open.ops";
    slot_bytes = c "crypto.seal.bytes" / max 1 (c "crypto.seal.ops");
    regions;
    pad_slots;
    otuples;
    delivered = (match opened with Ok l -> l | Error e -> failwith ("replica: " ^ e));
  }

(* The counts of several replicas (the slices of one sharded op) summed;
   timings stay those of the first. *)
let sum_counts = function
  | [] -> invalid_arg "sum_counts"
  | r :: rest ->
      List.fold_left
        (fun acc x ->
          { acc with
            transfers = acc.transfers + x.transfers;
            seal_ops = acc.seal_ops + x.seal_ops;
            open_ops = acc.open_ops + x.open_ops;
            regions = acc.regions @ x.regions;
            pad_slots = acc.pad_slots + x.pad_slots;
          })
        r rest

(* [k] replicas of a short join; each timing is the median over them. *)
let median_replica k f =
  let rs = List.init k (fun _ -> f ()) in
  let med g = Util.median (List.map g rs) in
  { (List.hd rs) with
    instance_ms = med (fun r -> r.instance_ms);
    join_ms = med (fun r -> r.join_ms);
    result_ms = med (fun r -> r.result_ms);
    seal_ms = med (fun r -> r.seal_ms);
    open_ms = med (fun r -> r.open_ms);
  }

(* Per-op counts of a replica, scaled by how many computed joins an op
   holds (serve-mix: joins per session). *)
let set_replica t r ~joins_per_op =
  let per n = float_of_int n *. joins_per_op in
  List.iter
    (fun fam ->
      let n = List.fold_left (fun a (f, c) -> if f = fam then a + c else a) 0 r.regions in
      Layers.set t ("scpu.region_transfers." ^ fam) (per n))
    Layers.regions;
  Layers.set t "crypto.seal_ops_per_op" (per r.seal_ops);
  Layers.set t "crypto.open_ops_per_op" (per r.open_ops);
  Layers.set t "oblivious.pad_slots_per_op" (per r.pad_slots);
  Layers.set t "core.instance_ms" r.instance_ms;
  Layers.set t "core.join_ms" r.join_ms;
  Layers.set t "core.result_ms" r.result_ms;
  Layers.set t "core.seal_ms" r.seal_ms;
  Layers.set t "core.open_ms" r.open_ms

(* --- lib/scpu and lib/crypto ------------------------------------------ *)

(* One get + put on a loaded region, per transfer, in microseconds. *)
let transfer_us ~width =
  let slots = 256 in
  let co = Coprocessor.create ~host:(Host.create ()) ~m:4 ~seed:11 () in
  Coprocessor.load_region co Trace.Scratch (Array.make slots (String.make width 'x'));
  let round () =
    for i = 0 to slots - 1 do
      Coprocessor.put co Trace.Scratch i (Coprocessor.get co Trace.Scratch i)
    done
  in
  round ();
  1e6 *. median_of 15 round /. float_of_int (2 * slots)

(* OCB seal and open at [len] plaintext bytes: microseconds per call and
   block-cipher calls per message. *)
let ocb ~len =
  let key = Ocb.key_of_string "perfbench-ocb-k!" in
  let nonce = String.make 16 'n' in
  let src = Bytes.make len 'p' and dst = Bytes.create (len + Ocb.tag_length) in
  let plain = Bytes.create len in
  let calls = 2000 in
  let seal () =
    for _ = 1 to calls do
      Ocb.seal_into key ~nonce ~src ~src_pos:0 ~src_len:len ~dst ~dst_pos:0
    done
  in
  let opn () =
    for _ = 1 to calls do
      if
        not
          (Ocb.open_into key ~nonce ~src:dst ~src_pos:0 ~src_len:(len + Ocb.tag_length)
             ~dst:plain ~dst_pos:0)
      then failwith "ocb probe: tag did not verify"
    done
  in
  seal ();
  let us f = 1e6 *. median_of 9 f /. float_of_int calls in
  let seal_us = us seal and open_us = us opn in
  let cipher_calls f =
    Ocb.reset_block_cipher_calls key;
    f ();
    Ocb.block_cipher_calls key
  in
  let seal_calls =
    cipher_calls (fun () -> Ocb.seal_into key ~nonce ~src ~src_pos:0 ~src_len:len ~dst ~dst_pos:0)
  in
  let open_calls =
    cipher_calls (fun () ->
        ignore
          (Ocb.open_into key ~nonce ~src:dst ~src_pos:0 ~src_len:(len + Ocb.tag_length) ~dst:plain
             ~dst_pos:0))
  in
  (seal_us, open_us, seal_calls, open_calls)

let handshake_ms () =
  let rng = Ppj_crypto.Rng.create 17 in
  let mac_key = Inputs.mac_key in
  Util.ms
    (median_of 101 (fun () ->
         let hello, exponent = Channel.Handshake.hello rng ~id:"probe" ~mac_key in
         match Channel.Handshake.respond rng ~mac_key hello with
         | Error e -> failwith e
         | Ok (reply, _) -> (
             match Channel.Handshake.finish ~id:"probe" ~mac_key ~exponent reply with
             | Ok _ -> ()
             | Error e -> failwith e)))

let attest_ms () =
  let chain = Service.attestation_chain () in
  Util.ms
    (median_of 101 (fun () ->
         if not (Service.verify_chain chain) then failwith "attestation chain refused"))

(* The probes every traced run takes, and the per-transfer crypto work of
   this workload's replica. *)
let set_common t r =
  let seal_us, open_us, seal_calls, open_calls = ocb ~len:r.slot_bytes in
  Layers.set t "crypto.ocb_seal_us" seal_us;
  Layers.set t "crypto.ocb_open_us" open_us;
  Layers.set t "crypto.cipher_calls_per_op"
    ((Layers.get t "crypto.seal_ops_per_op" *. float_of_int seal_calls)
    +. (Layers.get t "crypto.open_ops_per_op" *. float_of_int open_calls));
  (* the slot header is 1 + |"scratch"| + 8 bytes *)
  Layers.set t "scpu.transfer_us" (transfer_us ~width:(max 1 (r.slot_bytes - 16)));
  Layers.set t "scpu.handshake_ms" (handshake_ms ());
  Layers.set t "scpu.attest_ms" (attest_ms ())

(* --- lib/oblivious ----------------------------------------------------- *)

(* Sort.sort_padded at the union size of a 256 x 256 Algorithm 8 join:
   512 records of a source tag and one keyed tuple. *)
let sort_ms () =
  let width = 1 + Ppj_relation.Schema.width Inputs.schema in
  let n = 512 in
  let rng = Inputs.rng ~seed:1 "sort-probe" 0 in
  let once () =
    let co = Coprocessor.create ~host:(Host.create ()) ~m:4 ~seed:3 () in
    Coprocessor.load_region co Trace.Scratch
      (Array.init (Sort.padded_size n) (fun _ -> Ppj_crypto.Rng.bytes rng width));
    snd (Util.timed (fun () -> Sort.sort_padded co Trace.Scratch ~n ~width ~compare:String.compare))
  in
  Util.ms (Util.median (List.init 3 (fun _ -> once ())))

(* Filter.run at shard-p2's slice shape: L/p = |A| * |B| / 2 oTuples,
   the public budget min(slice, S) = S, half of them real. *)
let filter_ms () =
  let a, b = Inputs.shard_pair ~seed:1 0 in
  let inst = Instance.create ~m:4 ~seed:1 ~predicate:Oracle.predicate [ a; b ] in
  let width = Instance.out_width inst in
  let payload = width - Decoy.otuple_width ~payload:0 in
  let src_len = Inputs.shard_na * Inputs.shard_nb / 2 and mu = Inputs.shard_s in
  let once () =
    let co = Coprocessor.create ~host:(Host.create ()) ~m:4 ~seed:5 () in
    Coprocessor.load_region co Trace.Output
      (Array.init src_len (fun i ->
           if i mod (src_len / (mu / 2)) = 0 then Decoy.real (String.make payload 'r')
           else Decoy.decoy ~payload));
    snd
      (Util.timed (fun () ->
           ignore
             (Filter.run co ~src:Trace.Output ~src_len ~mu
                ~is_real:(fun o -> not (Decoy.is_decoy o))
                ~width ())))
  in
  Util.ms (Util.median (List.init 9 (fun _ -> once ())))

(* --- lib/store ---------------------------------------------------------- *)

(* Store.put_submission with fsync, at serve-mix's submission size. *)
let store_append ~dir ~count =
  let a, _ = Inputs.fixture ~seed:1 0 in
  let contract = Inputs.contract "probe" in
  let party = Channel.party ~id:"alice-probe" ~secret:(String.make 16 'a') in
  let body = Ppj_net.Wire.submission_to_string (Channel.submit party contract a) in
  match Store.open_dir ~mac_key:Inputs.mac_key dir with
  | Error e -> failwith (Store.error_message e)
  | Ok (store, _) ->
      let times =
        List.init count (fun i ->
            snd
              (Util.timed (fun () ->
                   match
                     Store.put_submission store ~contract:(string_of_int i) ~provider:"alice" body
                   with
                   | Ok () -> ()
                   | Error e -> failwith (Store.append_error_message e))))
      in
      Store.close store;
      (Util.ms (Util.median times), Util.ms (Util.percentile times 99.))

(* Store.open_dir replay of a state directory, median of three opens. *)
let replay_ms dir =
  Util.ms
    (median_of 3 (fun () ->
         match Store.open_dir ~mac_key:Inputs.mac_key dir with
         | Ok (s, _) -> Store.close s
         | Error e -> failwith (Store.error_message e)))

(* The fixed-shape probes every traced run takes: sort at an Algorithm 8
   join's union size, filter at shard-p2's slice shape, appends at
   serve-mix's record size. *)
let set_fixed_shape t ~dir =
  Layers.set t "oblivious.sort_ms" (sort_ms ());
  Layers.set t "oblivious.filter_ms" (filter_ms ());
  let p50, p99 = store_append ~dir ~count:1000 in
  Layers.set t "store.append_ms" p50;
  Layers.set t "store.append_p99_ms" p99
