module Rng = Ppj_crypto.Rng
module Ocb = Ppj_crypto.Ocb
module Prf = Ppj_crypto.Prf
module Injector = Ppj_fault.Injector
module Recorder = Ppj_obs.Recorder

exception Tamper_detected of string
exception Memory_exceeded of string
exception Crashed of { transfer : int }

(* Parsed contents of a sealed checkpoint: everything [T] needs to prove a
   replayed prefix re-derived exactly the state it sealed. *)
type saved = {
  s_version : int;
  s_ops : int;
  s_nonce_ctr : int;
  s_cycles : int;
  s_mem_in_use : int;
  s_mem_peak : int;
  s_epochs : (string * int * int) list;  (* region name, index, epoch — sorted *)
}

type mode = Normal | Ghost of { until : int; target : saved }

(* One region's slot epochs, indexed by slot (0 = never written), and
   the region name its slot headers carry. *)
type region_epochs = { region : Trace.region; name : string; mutable slots : int array }

type t = {
  host : Host.t;
  trace : Trace.t;
  key : Ocb.key;
  nonce_prf : Prf.t;
  mutable nonce_ctr : int;
  m : int;
  mutable mem_in_use : int;
  mutable mem_peak : int;
  rng : Rng.t;
  mutable cycles : int;
  mutable pad_slots : (Trace.region * int) list;
      (* sentinel slots padded sorts wrote, per region, in first-padded
         order: this execution's alone, since a resumed [T] starts empty
         and its replay reruns every sort *)
  (* --- flight recorder --- *)
  recorder : Recorder.t option;
  event_batch : int;
      (* one [scpu.transfer.batch] event per this many live transfers;
         the batch clock is the op counter, so event placement is a
         function of input shape alone (Definitions 1/3) *)
  (* --- robustness layer --- *)
  faults : Injector.t option;
  checkpoint_every : int option;
  on_checkpoint : (version:int -> image:Host.export -> unit) option;
      (* durability hook: fired after every sealed checkpoint with the
         NVRAM version and the host's ciphertext image, so a server can
         persist both and survive its own death, not just [T]'s *)
  nvram : int ref;
      (* monotonic checkpoint version in [T]'s battery-backed NVRAM (the
         4758 keeps such a counter across power loss): a host replaying
         an older sealed checkpoint is caught by version mismatch *)
  mutable epochs : region_epochs array;
  mutable n_epochs : int;
  mutable last_epochs : int;
      (* per-slot write epoch, [T]-private.  A stale-but-authentic
         ciphertext replayed into a slot carries an older epoch in its
         sealed header and is rejected.  Stands in for the Merkle tree a
         real deployment would use; not charged to the M-tuple ledger,
         like the paper's own bookkeeping state.  Epochs only grow:
         redefining a host region keeps them, so a ciphertext from before
         the redefinition stays stale.  One entry per region sealed into
         ([n_epochs] of them, in first-write order) and the index of the
         last one found, -1 before any: every seal and open finds its
         region by [Trace.same_region] among these few, the last hit
         first, with no polymorphic hash. *)
  replay_stash : (Trace.region * int, string) Hashtbl.t;
      (* host-side memory of overwritten ciphertexts, kept only while the
         fault plan still owes a replay event *)
  mutable ops : int;  (* logical transfer clock, including ghost replay *)
  mutable last_checkpoint : int;
  mutable mode : mode;
  mutable checkpoints_taken : int;
  mutable last_checkpoint_bytes : int;
  mutable ghost_ops : int;
  mutable resumed : bool;
  (* --- crypto accounting (crypto.* metrics) --- *)
  mutable seal_ops : int;
  mutable seal_bytes : int;
  mutable open_ops : int;
  mutable open_bytes : int;
}

let make_t ?recorder ?(event_batch = 64) ?faults ?checkpoint_every ?on_checkpoint ?nvram ~host
    ~m ~seed () =
  if event_batch < 1 then invalid_arg "Coprocessor: event_batch must be >= 1";
  let rng = Rng.create seed in
  let key_rng = Rng.split rng "storage-key" in
  { host;
    trace = Trace.create ();
    key = Ocb.key_of_string (Rng.bytes key_rng 16);
    nonce_prf = Prf.of_seed (Rng.int (Rng.split rng "nonce") max_int);
    nonce_ctr = 0;
    m;
    mem_in_use = 0;
    mem_peak = 0;
    rng = Rng.split rng "internal";
    cycles = 0;
    pad_slots = [];
    recorder;
    event_batch;
    faults;
    checkpoint_every;
    on_checkpoint;
    nvram = (match nvram with Some r -> r | None -> ref 0);
    epochs = Array.make 8 { region = Trace.Disk; name = ""; slots = [||] };
    n_epochs = 0;
    last_epochs = -1;
    replay_stash = Hashtbl.create 16;
    ops = 0;
    last_checkpoint = -1;
    mode = Normal;
    checkpoints_taken = 0;
    last_checkpoint_bytes = 0;
    ghost_ops = 0;
    resumed = false;
    seal_ops = 0;
    seal_bytes = 0;
    open_ops = 0;
    open_bytes = 0;
  }

let create ?recorder ?event_batch ?faults ?checkpoint_every ?on_checkpoint ?nvram ~host ~m
    ~seed () =
  make_t ?recorder ?event_batch ?faults ?checkpoint_every ?on_checkpoint ?nvram ~host ~m ~seed
    ()

let host t = t.host
let trace t = t.trace
let m t = t.m
let recorder t = t.recorder

(* Recorder pass-throughs for layers below ppj_obs in the dependency
   graph (lib/oblivious).  Attributes are integers only — counts and
   sizes, the quantities the host already observes. *)
let int_attrs attrs = List.map (fun (k, v) -> (k, Recorder.int v)) attrs

let with_span t ?(attrs = []) name f =
  match t.recorder with
  | None -> f ()
  | Some r -> Recorder.with_span r ~attrs:(int_attrs attrs) name f

let emit t ?(attrs = []) name =
  match t.recorder with
  | None -> ()
  | Some r -> Recorder.event r ~attrs:(int_attrs attrs) name

let event = emit

let nonce_size = Ocb.nonce_size

(* What a [Tamper_detected] message names: the failing read or a fixed
   label.  Formatting a trace entry costs more than the transfer itself,
   so the string is built only once a check has failed. *)
type context = Slot of Trace.region * int | Label of string

let tamper context what =
  let where =
    match context with
    | Slot (region, index) ->
        Format.asprintf "%a" Trace.pp_entry { Trace.op = Read; region; index }
    | Label l -> l
  in
  raise (Tamper_detected (where ^ what))

(* A sealed blob is [nonce | ciphertext | tag].  Sealing writes its
   plaintext into the one exact-size output buffer at [nonce_size], the
   PRF nonce for counter [nonce_index] in front of it, and encrypts it
   there in place; opening reads the nonce where it lies and decrypts
   into one buffer the caller parses.  Both run on every tuple
   transfer. *)
let seal_buffer len = Bytes.create (nonce_size + len + Ocb.tag_length)

let seal_in_place t ~nonce_index buf ~len =
  Prf.nonce_into t.nonce_prf nonce_index buf ~pos:0;
  Ocb.seal_blob t.key buf ~pos:0 ~len;
  t.seal_ops <- t.seal_ops + 1;
  t.seal_bytes <- t.seal_bytes + len;
  Bytes.unsafe_to_string buf

let open_sealed t ciphertext ~context =
  let len = String.length ciphertext in
  if len < nonce_size + Ocb.tag_length then tamper context ": truncated ciphertext";
  let out = Bytes.create (len - nonce_size - Ocb.tag_length) in
  if
    not
      (Ocb.open_blob t.key ~src:(Bytes.unsafe_of_string ciphertext) ~src_pos:0 ~src_len:len
         ~dst:out ~dst_pos:0)
  then tamper context "";
  t.open_ops <- t.open_ops + 1;
  t.open_bytes <- t.open_bytes + Bytes.length out;
  out

(* --- slot headers ----------------------------------------------------
   Every stored tuple is sealed behind a (region, index, epoch) header,
   so an authentic ciphertext cannot be moved to another slot or served
   after it was overwritten: OCB authenticates the binding, the epoch
   arrays supply freshness.  The sealed plaintext is

     len(name):u8 | name | index:i32be | epoch:i32be | tuple *)

(* The index of [region]'s epochs from [i] on, or [n_epochs] if it has
   none.  Top-level: a local recursive function would allocate its
   closure on every call. *)
let rec find_epochs t region i =
  if i = t.n_epochs || Trace.same_region t.epochs.(i).region region then i
  else find_epochs t region (i + 1)

(* The index of [region]'s epochs, or [n_epochs] if it has none. *)
let epochs_index t region =
  let last = t.last_epochs in
  if last >= 0 && Trace.same_region (Array.unsafe_get t.epochs last).region region then last
  else begin
    let i = find_epochs t region 0 in
    if i < t.n_epochs then t.last_epochs <- i;
    i
  end

let epochs_for_write t region =
  let i = epochs_index t region in
  if i < t.n_epochs then Array.unsafe_get t.epochs i
  else begin
    if i = Array.length t.epochs then begin
      let bigger = Array.make (2 * i) t.epochs.(0) in
      Array.blit t.epochs 0 bigger 0 i;
      t.epochs <- bigger
    end;
    let r = { region; name = Trace.region_name region; slots = [||] } in
    t.epochs.(i) <- r;
    t.n_epochs <- i + 1;
    t.last_epochs <- i;
    r
  end

let seal_slot t region index tuple =
  let r = epochs_for_write t region in
  if index >= Array.length r.slots then begin
    let grown = Array.make (max (index + 1) (2 * Array.length r.slots)) 0 in
    Array.blit r.slots 0 grown 0 (Array.length r.slots);
    r.slots <- grown
  end;
  let epoch = r.slots.(index) + 1 in
  r.slots.(index) <- epoch;
  let n = String.length r.name in
  let len = 1 + n + 8 + String.length tuple in
  let buf = seal_buffer len in
  Bytes.set_uint8 buf nonce_size n;
  Bytes.blit_string r.name 0 buf (nonce_size + 1) n;
  Bytes.set_int32_be buf (nonce_size + 1 + n) (Int32.of_int index);
  Bytes.set_int32_be buf (nonce_size + 5 + n) (Int32.of_int epoch);
  Bytes.blit_string tuple 0 buf (nonce_size + 9 + n) (String.length tuple);
  let nonce_index = t.nonce_ctr in
  t.nonce_ctr <- t.nonce_ctr + 1;
  seal_in_place t ~nonce_index buf ~len

(* The tuple behind an opened header, once the header is known to fit. *)
let slot_body plain ~context =
  let len = Bytes.length plain in
  if len < 1 || len < 1 + Bytes.get_uint8 plain 0 + 8 then
    tamper context ": malformed slot header";
  let off = 1 + Bytes.get_uint8 plain 0 + 8 in
  Bytes.sub_string plain off (len - off)

(* Top-level: a local recursive function would allocate its closure on
   every read. *)
let rec name_at plain name i =
  i = String.length name
  || (Bytes.get plain (1 + i) = String.get name i && name_at plain name (i + 1))

let open_slot t region index ciphertext =
  let context = Slot (region, index) in
  let plain = open_sealed t ciphertext ~context in
  let body = slot_body plain ~context in
  let i = epochs_index t region in
  let fresh =
    i < t.n_epochs
    &&
    let r = Array.unsafe_get t.epochs i in
    let n = String.length r.name in
    (* 0, which no sealed header carries: never written, also past the
       array's end *)
    let epoch = if index < Array.length r.slots then r.slots.(index) else 0 in
    Bytes.get_uint8 plain 0 = n
    && name_at plain r.name 0
    && Int32.to_int (Bytes.get_int32_be plain (1 + n)) = index
    && Int32.to_int (Bytes.get_int32_be plain (5 + n)) = epoch
  in
  if not fresh then tamper context ": stale or relocated ciphertext";
  body

(* --- checkpoints -----------------------------------------------------
   Placement is a function of the transfer clock alone (every [c] ops),
   so the extra [Write Checkpoint[0]] trace entries depend only on input
   shape — Definitions 1 and 3 survive the extension of the trace.  The
   sealed blob is encrypted with a nonce from a counter range disjoint
   from data nonces ([ckpt_nonce_base], mirroring the responder-range
   trick in {!Channel}), so replaying the prefix after a crash re-derives
   data nonces without colliding with checkpoint nonces. *)

let ckpt_nonce_base = 1 lsl 60

let encode_saved s =
  let b = Buffer.create 256 in
  Buffer.add_int32_be b (Int32.of_int s.s_version);
  Buffer.add_int64_be b (Int64.of_int s.s_ops);
  Buffer.add_int64_be b (Int64.of_int s.s_nonce_ctr);
  Buffer.add_int64_be b (Int64.of_int s.s_cycles);
  Buffer.add_int32_be b (Int32.of_int s.s_mem_in_use);
  Buffer.add_int32_be b (Int32.of_int s.s_mem_peak);
  Buffer.add_int32_be b (Int32.of_int (List.length s.s_epochs));
  List.iter
    (fun (name, index, epoch) ->
      Buffer.add_uint8 b (String.length name);
      Buffer.add_string b name;
      Buffer.add_int32_be b (Int32.of_int index);
      Buffer.add_int32_be b (Int32.of_int epoch))
    s.s_epochs;
  Buffer.contents b

let decode_saved s ~context =
  let bad () = raise (Tamper_detected (context ^ ": malformed checkpoint")) in
  let pos = ref 0 in
  let need n = if !pos + n > String.length s then bad () in
  let u32 () =
    need 4;
    let v = Int32.to_int (String.get_int32_be s !pos) in
    pos := !pos + 4;
    v
  in
  let u64 () =
    need 8;
    let v = Int64.to_int (String.get_int64_be s !pos) in
    pos := !pos + 8;
    v
  in
  let s_version = u32 () in
  let s_ops = u64 () in
  let s_nonce_ctr = u64 () in
  let s_cycles = u64 () in
  let s_mem_in_use = u32 () in
  let s_mem_peak = u32 () in
  let n = u32 () in
  let s_epochs =
    List.init n (fun _ ->
        need 1;
        let len = Char.code s.[!pos] in
        incr pos;
        need len;
        let name = String.sub s !pos len in
        pos := !pos + len;
        let index = u32 () in
        let epoch = u32 () in
        (name, index, epoch))
  in
  if !pos <> String.length s then bad ();
  { s_version; s_ops; s_nonce_ctr; s_cycles; s_mem_in_use; s_mem_peak; s_epochs }

let sorted_epochs t =
  let acc = ref [] in
  for i = 0 to t.n_epochs - 1 do
    let r = t.epochs.(i) in
    Array.iteri
      (fun index epoch -> if epoch > 0 then acc := (r.name, index, epoch) :: !acc)
      r.slots
  done;
  List.sort compare !acc

let saved_of_state t ~version =
  { s_version = version;
    s_ops = t.ops;
    s_nonce_ctr = t.nonce_ctr;
    s_cycles = t.cycles;
    s_mem_in_use = t.mem_in_use;
    s_mem_peak = t.mem_peak;
    s_epochs = sorted_epochs t;
  }

let take_checkpoint t =
  incr t.nvram;
  let version = !(t.nvram) in
  let blob = encode_saved (saved_of_state t ~version) in
  let len = String.length blob in
  let buf = seal_buffer len in
  Bytes.blit_string blob 0 buf nonce_size len;
  let sealed = seal_in_place t ~nonce_index:(ckpt_nonce_base + version) buf ~len in
  let (_ : Host.t) = Host.define_region t.host Trace.Checkpoint ~size:1 in
  Trace.record t.trace Trace.Write Trace.Checkpoint 0;
  Host.raw_set t.host Trace.Checkpoint 0 sealed;
  Host.save_checkpoint t.host;
  (match t.on_checkpoint with
  | Some f -> (
      match Host.export_checkpoint t.host with
      | Some image -> f ~version ~image
      | None -> ())
  | None -> ());
  t.last_checkpoint <- t.ops;
  t.checkpoints_taken <- t.checkpoints_taken + 1;
  t.last_checkpoint_bytes <- String.length sealed;
  emit t "scpu.checkpoint" ~attrs:[ ("ops", t.ops); ("bytes", String.length sealed) ]

(* Ghost replay reached the checkpointed transfer: prove the re-derived
   private state matches the sealed one, then swap the host back to its
   checkpoint image and go live. *)
let complete_resume t target =
  let matches =
    t.nonce_ctr = target.s_nonce_ctr
    && t.cycles = target.s_cycles
    && t.mem_in_use = target.s_mem_in_use
    && sorted_epochs t = target.s_epochs
  in
  if not matches then
    raise (Tamper_detected "resume: replayed prefix diverged from the sealed checkpoint");
  t.mem_peak <- max t.mem_peak target.s_mem_peak;
  Host.restore_checkpoint t.host;
  t.ghost_ops <- target.s_ops;
  t.mode <- Normal;
  t.resumed <- true;
  emit t "scpu.resumed" ~attrs:[ ("ops", t.ops); ("ghost_ops", t.ghost_ops) ]

let in_ghost t = match t.mode with Ghost _ -> true | Normal -> false

(* Runs before every transfer: leave ghost mode at the checkpoint
   boundary, then (live only) take a due checkpoint and ask the fault
   plan whether this transfer is attacked. *)
let begin_op t =
  (match t.mode with
  | Ghost { until; target } when t.ops >= until -> complete_resume t target
  | _ -> ());
  match t.mode with
  | Ghost _ -> None
  | Normal ->
      (match t.checkpoint_every with
      | Some c when t.ops mod c = 0 && t.ops > t.last_checkpoint -> take_checkpoint t
      | _ -> ());
      (match t.faults with
      | Some inj -> (
          match Injector.on_transfer inj ~transfer:t.ops with
          | Some Injector.Crash ->
              emit t "fault.crash" ~attrs:[ ("transfer", t.ops) ];
              raise (Crashed { transfer = t.ops })
          | d -> d)
      | None -> None)

let stash_overwritten t region index =
  match t.faults with
  | Some inj when Injector.wants_replay inj -> (
      match Host.peek t.host region index with
      | Some old -> Hashtbl.replace t.replay_stash (region, index) old
      | None -> ())
  | _ -> ()

let tamper_byte t region index =
  (* deterministic byte position: tied to the transfer clock *)
  Host.tamper t.host region index ~byte:t.ops

(* Live transfers tick the recorder every [event_batch] ops; placement
   follows the op clock, so the event stream is shape-deterministic. *)
let batch_tick t =
  if not (in_ghost t) && t.ops mod t.event_batch = 0 then
    emit t "scpu.transfer.batch" ~attrs:[ ("ops", t.ops) ]

let get t region index =
  let fault = begin_op t in
  if not (in_ghost t) then Trace.record t.trace Trace.Read region index;
  (match fault with
  | Some Injector.Corrupt ->
      emit t "fault.corrupt" ~attrs:[ ("transfer", t.ops) ];
      tamper_byte t region index
  | Some Injector.Replay -> (
      emit t "fault.replay" ~attrs:[ ("transfer", t.ops) ];
      match Hashtbl.find_opt t.replay_stash (region, index) with
      | Some stale -> Host.raw_set t.host region index stale
      | None -> tamper_byte t region index)
  | Some Injector.Crash | None -> ());
  t.ops <- t.ops + 1;
  batch_tick t;
  open_slot t region index (Host.raw_get t.host region index)

let put t region index plaintext =
  let fault = begin_op t in
  if not (in_ghost t) then Trace.record t.trace Trace.Write region index;
  t.ops <- t.ops + 1;
  batch_tick t;
  stash_overwritten t region index;
  Host.raw_set t.host region index (seal_slot t region index plaintext);
  match fault with
  | Some Injector.Corrupt ->
      emit t "fault.corrupt" ~attrs:[ ("transfer", t.ops - 1) ];
      tamper_byte t region index
  | Some Injector.Replay -> (
      emit t "fault.replay" ~attrs:[ ("transfer", t.ops - 1) ];
      (* the host "loses" the write and keeps serving the old version *)
      match Hashtbl.find_opt t.replay_stash (region, index) with
      | Some stale -> Host.raw_set t.host region index stale
      | None -> tamper_byte t region index)
  | Some Injector.Crash | None -> ()

let load_region t region tuples =
  let (_ : Host.t) = Host.define_region t.host region ~size:(Array.length tuples) in
  Array.iteri (fun i p -> Host.raw_set t.host region i (seal_slot t region i p)) tuples

let transfers t = Trace.length t.trace

let ops t = t.ops

(* --- resume ---------------------------------------------------------- *)

let resume ?recorder ?event_batch ?faults ?checkpoint_every ?on_checkpoint ~nvram ~host ~m
    ~seed () =
  if not (Host.has_checkpoint host) then invalid_arg "Coprocessor.resume: no checkpoint held";
  (* The host first recovers its own image so the sealed blob is the one
     paired with it, then empties its live state: the replayed prefix
     rebuilds the pre-crash world from pristine inputs. *)
  Host.restore_checkpoint host;
  let t =
    make_t ?recorder ?event_batch ?faults ?checkpoint_every ?on_checkpoint ~nvram ~host ~m
      ~seed ()
  in
  let sealed = Host.raw_get host Trace.Checkpoint 0 in
  let blob = open_sealed t sealed ~context:(Label "checkpoint") in
  let target = decode_saved (Bytes.unsafe_to_string blob) ~context:"checkpoint" in
  if target.s_version <> !(t.nvram) then
    raise (Tamper_detected "checkpoint: version rollback detected");
  Host.reset host;
  t.mode <- Ghost { until = target.s_ops; target };
  t.last_checkpoint <- target.s_ops;
  t

let resuming t = in_ghost t

(* --- ledger, randomness, cycles -------------------------------------- *)

let alloc t n =
  if t.mem_in_use + n > t.m then
    raise
      (Memory_exceeded
         (Printf.sprintf "alloc %d with %d/%d in use" n t.mem_in_use t.m));
  t.mem_in_use <- t.mem_in_use + n;
  if t.mem_in_use > t.mem_peak then t.mem_peak <- t.mem_in_use

let free t n =
  if n > t.mem_in_use then invalid_arg "Coprocessor.free: ledger underflow";
  t.mem_in_use <- t.mem_in_use - n

let mem_in_use t = t.mem_in_use

let rng t = t.rng
let fresh_seed t = Rng.int t.rng 0x3FFFFFFF

let tick t n = t.cycles <- t.cycles + n
let cycles t = t.cycles

let count_pad_slots t region n =
  let rec add = function
    | [] -> [ (region, n) ]
    | (r, k) :: tl when Trace.same_region r region -> (r, k + n) :: tl
    | x :: tl -> x :: add tl
  in
  t.pad_slots <- add t.pad_slots

let pad_slots t = t.pad_slots

let decrypt_for_recipient t ciphertext =
  let context = Label "recipient" in
  slot_body (open_sealed t ciphertext ~context) ~context

module Registry = Ppj_obs.Registry
module Obs_counter = Ppj_obs.Counter

let observe_pad_slots ?(labels = []) t reg =
  List.iter
    (fun (region, n) ->
      Registry.set_gauge
        ~labels:(("region", Trace.region_name region) :: labels)
        reg "oblivious.sort.pad_slots" (float_of_int n))
    t.pad_slots

let observe ?(labels = []) t reg =
  let set name v = Obs_counter.set_to (Registry.counter ~labels reg name) v in
  let regions = Trace.by_region t.trace in
  let reads = List.fold_left (fun n (_, (r, _)) -> n + r) 0 regions in
  set "scpu.transfers" (Trace.length t.trace);
  set "scpu.reads" reads;
  set "scpu.writes" (Trace.length t.trace - reads);
  set "scpu.cycles" t.cycles;
  List.iter
    (fun (region, (r, w)) ->
      let labels = ("region", Trace.region_name region) :: labels in
      Obs_counter.set_to (Registry.counter ~labels reg "scpu.region.reads") r;
      Obs_counter.set_to (Registry.counter ~labels reg "scpu.region.writes") w;
      Obs_counter.set_to (Registry.counter ~labels reg "scpu.region.transfers") (r + w))
    regions;
  Registry.set_gauge ~labels reg "scpu.mem_limit" (float_of_int t.m);
  Registry.set_gauge ~labels reg "scpu.mem_in_use" (float_of_int t.mem_in_use);
  Registry.set_gauge ~labels reg "scpu.mem_peak" (float_of_int t.mem_peak);
  set "recovery.checkpoints" t.checkpoints_taken;
  set "recovery.resumes" (if t.resumed then 1 else 0);
  set "recovery.ghost_ops" t.ghost_ops;
  Registry.set_gauge ~labels reg "recovery.checkpoint.bytes"
    (float_of_int t.last_checkpoint_bytes);
  observe_pad_slots ~labels t reg;
  (* Crypto hot-path accounting: every T<->H transfer is sealed/opened,
     so these expose the cipher work behind the transfer counts. *)
  set "crypto.seal.ops" t.seal_ops;
  set "crypto.seal.bytes" t.seal_bytes;
  set "crypto.open.ops" t.open_ops;
  set "crypto.open.bytes" t.open_bytes;
  set "crypto.cipher.calls" (Ocb.block_cipher_calls t.key);
  set "crypto.f.applications" (Ocb.f_applications t.key)
