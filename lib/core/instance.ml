module Coprocessor = Ppj_scpu.Coprocessor
module Host = Ppj_scpu.Host
module Trace = Ppj_scpu.Trace
module Relation = Ppj_relation.Relation
module Tuple = Ppj_relation.Tuple
module Predicate = Ppj_relation.Predicate
module Schema = Ppj_relation.Schema
module Decoy = Ppj_relation.Decoy
module Join = Ppj_relation.Join
module Bitonic = Ppj_oblivious.Bitonic
module Sort = Ppj_oblivious.Sort

type t = {
  mutable co : Coprocessor.t;
  host : Host.t;
  m : int;
  seed : int;
  recorder : Ppj_obs.Recorder.t option;
  event_batch : int option;
  mutable join_span : string option;
      (* flight-recorder id of the original join span, so a later resume
         span can be parented under it even across a server round trip *)
  faults : Ppj_fault.Injector.t option;
  checkpoint_every : int option;
  on_checkpoint : (version:int -> image:Host.export -> unit) option;
  nvram : int ref;
  predicate : Predicate.t;
  fixed_time : bool;
  rels : Relation.t array;
  encoded : string array array;  (* [encoded.(k).(j)]: tuple j of relation k, encoded *)
  widths : int array;
  sizes : int array;
  l : int;
  payload_width : int;
  joined_schema : Schema.t;
  mutable cartesian : bool;
  mutable prior_traces : Trace.t list;  (* reversed; pre-crash views *)
  mutable resume_count : int;
}

let match_cycles = 4

let encode_tables rels =
  Array.map
    (fun r -> Array.init (Relation.cardinality r) (fun j -> Tuple.encode (Relation.get r j)))
    rels

(* The providers' submissions, re-playable: loading is deterministic in
   (relations, seed), so a resumed coprocessor's ghost replay re-seals
   byte-identical ciphertexts.  Regions are padded to the next power of
   two so that oblivious sorting of a whole relation (Algorithm 3) needs
   no re-allocation. *)
let load_tables co ~rels ~encoded ~widths =
  Array.iteri
    (fun i r ->
      let n = Array.length encoded.(i) in
      let padded = Bitonic.next_pow2 n in
      let slots =
        Array.init padded (fun j ->
            if j < n then encoded.(i).(j) else Sort.sentinel ~width:widths.(i))
      in
      Coprocessor.load_region co (Trace.Table r.Relation.name) slots)
    rels

let create ?(fixed_time = true) ?recorder ?event_batch ?faults ?checkpoint_every ?on_checkpoint
    ?(nvram_init = 0) ~m ~seed ~predicate rels =
  if rels = [] then invalid_arg "Instance.create: no relations";
  (* A fault plan may carry its own checkpoint interval
     ([checkpoint@every=C]); an explicit argument wins. *)
  let checkpoint_every =
    match checkpoint_every with
    | Some _ as c -> c
    | None -> Option.bind faults Ppj_fault.Injector.checkpoint_every
  in
  let host = Host.create () in
  let nvram = ref nvram_init in
  let co =
    Coprocessor.create ?recorder ?event_batch ?faults ?checkpoint_every ?on_checkpoint ~nvram
      ~host ~m ~seed ()
  in
  let rels = Array.of_list rels in
  let widths = Array.map (fun r -> Schema.width r.Relation.schema) rels in
  let sizes = Array.map Relation.cardinality rels in
  let l = Array.fold_left ( * ) 1 sizes in
  let encoded = encode_tables rels in
  load_tables co ~rels ~encoded ~widths;
  { co;
    host;
    m;
    seed;
    recorder;
    event_batch;
    join_span = None;
    faults;
    checkpoint_every;
    on_checkpoint;
    nvram;
    predicate;
    fixed_time;
    rels;
    encoded;
    widths;
    sizes;
    l;
    payload_width = Array.fold_left ( + ) 0 widths;
    joined_schema =
      Schema.concat_all (Array.to_list (Array.map (fun r -> r.Relation.schema) rels));
    cartesian = false;
    prior_traces = [];
    resume_count = 0;
  }

let recover t =
  t.prior_traces <- Coprocessor.trace t.co :: t.prior_traces;
  let { host; m; seed; recorder; event_batch; faults; checkpoint_every; on_checkpoint; nvram; _ }
      =
    t
  in
  let co =
    if Host.has_checkpoint host then
      Coprocessor.resume ?recorder ?event_batch ?faults ?checkpoint_every ?on_checkpoint ~nvram
        ~host ~m ~seed ()
    else begin
      (* Crash before the first checkpoint: nothing sealed, so the rerun
         is a fresh protocol execution from the pristine inputs. *)
      Host.reset host;
      Coprocessor.create ?recorder ?event_batch ?faults ?checkpoint_every ?on_checkpoint ~nvram
        ~host ~m ~seed ()
    end
  in
  load_tables co ~rels:t.rels ~encoded:t.encoded ~widths:t.widths;
  t.co <- co;
  t.cartesian <- false;
  t.resume_count <- t.resume_count + 1

let adopt_checkpoint t ~image ~nvram =
  t.nvram := nvram;
  Host.install_checkpoint t.host image

let resumes t = t.resume_count

let recorder t = t.recorder
let set_join_span t id = t.join_span <- Some id
let join_span t = t.join_span

let extended_trace t =
  match t.prior_traces with
  | [] -> Coprocessor.trace t.co
  | prior -> Trace.concat (List.rev (Coprocessor.trace t.co :: prior))

let co t = t.co
let predicate t = t.predicate
let sizes t = t.sizes
let l t = t.l
let relation_region t i = Trace.Table t.rels.(i).Relation.name
let relation_width t i = t.widths.(i)
let out_width t = Decoy.otuple_width ~payload:t.payload_width
let joined_schema t = t.joined_schema

let binary t =
  if Array.length t.rels <> 2 then invalid_arg "Instance: not a binary join"

let a_len t = binary t; t.sizes.(0)
let b_len t = binary t; t.sizes.(1)
let region_a t = binary t; relation_region t 0
let region_b t = binary t; relation_region t 1
let decode_a t s = Tuple.decode t.rels.(0).Relation.schema s
let decode_b t s = Tuple.decode t.rels.(1).Relation.schema s

(* Fixed Time (§3.4.3): burn the full budget regardless of the outcome.
   Without padding, composing and encrypting a result tuple costs extra
   cycles only on a match — the timing side channel of §3.4.2. *)
let charge t matched =
  if t.fixed_time then Coprocessor.tick t.co match_cycles
  else Coprocessor.tick t.co (1 + if matched then match_cycles else 0)

let match2 t ea eb =
  let matched = Predicate.eval t.predicate [| decode_a t ea; decode_b t eb |] in
  charge t matched;
  matched

let join2 _t ea eb = Decoy.real (ea ^ eb)

let decoy t = Decoy.decoy ~payload:t.payload_width

(* iTuple idx decomposes row-major: the last relation's index varies
   fastest (§5.2.1's logical-index convention, matching Join.multiway).
   Its plaintext concatenates the components' encodings, as loaded. *)
let component_indices t idx =
  let j = Array.length t.rels in
  let out = Array.make j 0 in
  let rem = ref idx in
  for k = j - 1 downto 0 do
    out.(k) <- !rem mod t.sizes.(k);
    rem := !rem / t.sizes.(k)
  done;
  out

let ituple_plaintext t idx =
  let ids = component_indices t idx in
  String.concat "" (List.init (Array.length t.rels) (fun k -> t.encoded.(k).(ids.(k))))

let ensure_cartesian t =
  if not t.cartesian then begin
    Coprocessor.load_region t.co Trace.Cartesian
      (Array.init t.l (fun idx -> ituple_plaintext t idx));
    t.cartesian <- true
  end

let get_ituple t idx = Coprocessor.get t.co Trace.Cartesian idx

let decode_components t s =
  let j = Array.length t.rels in
  let pos = ref 0 in
  Array.init j (fun k ->
      let w = t.widths.(k) in
      let part = String.sub s !pos w in
      pos := !pos + w;
      Tuple.decode t.rels.(k).Relation.schema part)

let satisfy t s =
  let matched = Predicate.eval t.predicate (decode_components t s) in
  charge t matched;
  matched

let decode_ituple = decode_components

let join_ituple _t s = Decoy.real s

let decode_result t o = Tuple.decode t.joined_schema (Decoy.payload o)

let oracle t = Join.multiway t.predicate (Array.to_list t.rels)
let oracle_size t = Join.result_size t.predicate (Array.to_list t.rels)

let max_matches t =
  binary t;
  Join.max_matches t.predicate t.rels.(0) t.rels.(1)
