type key = {
  aes : Aes.key;
  l0 : Block.t; (* L = E_K(0^n) *)
  l_inv : Block.t; (* L(-1) = L * x^-1 *)
  mutable l_tab : Block.t array; (* L(j) = L * x^j, grown on demand *)
  mutable f_apps : int;
  mutable cipher_calls : int;
  ctx : bytes;
      (* L(-1), L(0), L(1), ... as one table, 16 bytes each, for the
         message stubs where the CPU has the AES instructions; empty
         elsewhere *)
}

let tag_length = Block.size

let blocks_for len = if len = 0 then 1 else (len + Block.size - 1) / Block.size

(* Block i of a message uses L(ntz i), and ntz i < bits i, so a message
   of the longest length [Bytes] allows reaches L(j) only for
   j < bits (its block count). *)
let l_entries =
  let rec bits n = if n = 0 then 0 else 1 + bits (n lsr 1) in
  bits (blocks_for Sys.max_string_length)

let context (l0 : Block.t) (l_inv : Block.t) =
  let ctx = Bytes.create (Block.size * (l_entries + 1)) in
  Bytes.blit_string (l_inv :> string) 0 ctx 0 Block.size;
  Bytes.blit_string (l0 :> string) 0 ctx Block.size Block.size;
  for j = 2 to l_entries do
    Block.double_into ctx ~src:(Block.size * (j - 1)) ~dst:(Block.size * j)
  done;
  ctx

let key_of_string raw =
  let aes = Aes.expand raw in
  let l0 = Aes.encrypt aes Block.zero in
  let l_inv = Block.halve l0 in
  let ctx = if Aes.hardware then context l0 l_inv else Bytes.empty in
  { aes; l0; l_inv; l_tab = [| l0 |]; f_apps = 0; cipher_calls = 1; ctx }

let f_applications k = k.f_apps
let reset_f_applications k = k.f_apps <- 0
let block_cipher_calls k = k.cipher_calls
let reset_block_cipher_calls k = k.cipher_calls <- 0

let enc k b =
  k.cipher_calls <- k.cipher_calls + 1;
  Aes.encrypt k.aes b

let l_at k j =
  let n = Array.length k.l_tab in
  if j >= n then begin
    (* Grow geometrically and fill every new slot: one O(cap) doubling
       pass instead of an O(m^2) copy-per-index cascade when offsets for
       a long message arrive incrementally. *)
    let cap = max (2 * n) (j + 1) in
    let tab = Array.make cap Block.zero in
    Array.blit k.l_tab 0 tab 0 n;
    for i = n to cap - 1 do
      tab.(i) <- Block.double tab.(i - 1)
    done;
    k.l_tab <- tab
  end;
  k.l_tab.(j)

let check_nonce nonce =
  if String.length nonce <> Block.size then invalid_arg "Ocb: nonce must be 16 bytes"

(* Z[0] = R = E_K(N xor L). *)
let z0 k nonce =
  check_nonce nonce;
  enc k (Block.xor (Block.of_string nonce) k.l0)

let f k z i =
  k.f_apps <- k.f_apps + 1;
  Block.xor z (l_at k (Block.ntz i))

let offset_sequential k ~nonce i =
  if i < 1 then invalid_arg "Ocb.offset_sequential";
  let z = ref (z0 k nonce) in
  for j = 1 to i do
    z := f k !z j
  done;
  !z

(* Gray-code identity: Z[i] = R xor (xor of L(j) over set bits j of gray i). *)
let offset_direct k ~nonce i =
  if i < 1 then invalid_arg "Ocb.offset_direct";
  let g = i lxor (i lsr 1) in
  let z = ref (z0 k nonce) in
  let j = ref 0 in
  let g = ref g in
  while !g <> 0 do
    if !g land 1 = 1 then z := Block.xor !z (l_at k !j);
    incr j;
    g := !g lsr 1
  done;
  !z

(* --- allocation-free core --------------------------------------------
   The hot path works on caller-supplied [Bytes] at explicit offsets: no
   [blocks_of] substring array, no [Block.xor] string per block.  The
   running offset Z, the checksum and one cipher block live in three
   16-byte scratch buffers per call (constant, not per block); Z is
   advanced in place by XORing L(ntz i) into it.

   Every 16-byte XOR is two 64-bit word operations.  XOR commutes with
   any byte order, so native-endian loads and stores compute the same
   bytes as a byte-at-a-time XOR; the loads are the unchecked
   primitives, and every span they touch is bounds-checked once, up
   front.  The primitives are applied directly, never bound to a name or
   passed as a value: that keeps each [int64] unboxed, so a block
   allocates nothing.  The string [encrypt]/[decrypt] API below is a thin
   wrapper and produces byte-identical output (the pinned KATs pin
   both). *)

external get64 : bytes -> int -> int64 = "%caml_bytes_get64u"
external set64 : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
external sget64 : string -> int -> int64 = "%caml_string_get64u"

(* b.[0..15] <- b.[0..15] xor s. *)
let[@inline] xor_str_into (s : string) b =
  set64 b 0 (Int64.logxor (get64 b 0) (sget64 s 0));
  set64 b 8 (Int64.logxor (get64 b 8) (sget64 s 8))

(* d.[dp..dp+15] <- a.[ap..ap+15] xor b.[0..15]. *)
let[@inline] xor_into d dp a ap b =
  set64 d dp (Int64.logxor (get64 a ap) (get64 b 0));
  set64 d (dp + 8) (Int64.logxor (get64 a (ap + 8)) (get64 b 8))

(* z <- E(N xor L) for the nonce N at [nb.[np..np+15]], charging one
   cipher call. *)
let z0_into k nb np z =
  let l0 = (k.l0 :> string) in
  set64 z 0 (Int64.logxor (get64 nb np) (sget64 l0 0));
  set64 z 8 (Int64.logxor (get64 nb (np + 8)) (sget64 l0 8));
  k.cipher_calls <- k.cipher_calls + 1;
  Aes.encrypt_into k.aes ~src:z ~src_pos:0 ~dst:z ~dst_pos:0

(* z <- f(z, i) in place. *)
let advance k z i =
  k.f_apps <- k.f_apps + 1;
  xor_str_into (l_at k (Block.ntz i) :> string) z

(* Y[m] = E(len(M[m]) xor L(-1) xor Z[m]), the pad of a final block of
   [last_len] bytes, into [tmp]. *)
let final_pad k z tmp last_len =
  Bytes.set_int64_be tmp 0 0L;
  Bytes.set_int64_be tmp 8 (Int64.of_int (8 * last_len));
  xor_str_into (k.l_inv :> string) tmp;
  xor_into tmp 0 tmp 0 z;
  k.cipher_calls <- k.cipher_calls + 1;
  Aes.encrypt_into k.aes ~src:tmp ~src_pos:0 ~dst:tmp ~dst_pos:0

(* d.[dp..dp+len-1] <- a.[ap..] xor b.[0..]: whole words while eight
   bytes remain, then bytes (a final block holds 0-16 of them). *)
let xor_partial d dp a ap b len =
  let j = ref 0 in
  while !j + 8 <= len do
    set64 d (dp + !j) (Int64.logxor (get64 a (ap + !j)) (get64 b !j));
    j := !j + 8
  done;
  while !j < len do
    Bytes.unsafe_set d (dp + !j)
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get a (ap + !j)) lxor Char.code (Bytes.unsafe_get b !j)));
    incr j
  done

let check_span name buf pos len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then invalid_arg name

(* The cores take the nonce as 16 bytes at [nb.[np..]]; callers have
   checked every span. *)
let seal_core k nb np ~src ~src_pos ~src_len ~dst ~dst_pos =
  let z = Bytes.create Block.size in
  let sum = Bytes.make Block.size '\000' in
  let tmp = Bytes.create Block.size in
  z0_into k nb np z;
  let m = blocks_for src_len in
  for i = 1 to m - 1 do
    advance k z i;
    let off = src_pos + (Block.size * (i - 1)) in
    let out = dst_pos + (Block.size * (i - 1)) in
    (* checksum gains M[i]; C[i] = E(M[i] xor Z[i]) xor Z[i] *)
    xor_into sum 0 src off sum;
    xor_into tmp 0 src off z;
    k.cipher_calls <- k.cipher_calls + 1;
    Aes.encrypt_into k.aes ~src:tmp ~src_pos:0 ~dst:tmp ~dst_pos:0;
    xor_into dst out tmp 0 z
  done;
  advance k z m;
  let last_off = src_pos + (Block.size * (m - 1)) in
  let last_out = dst_pos + (Block.size * (m - 1)) in
  let last_len = src_len - (Block.size * (m - 1)) in
  final_pad k z tmp last_len;
  (* C[m] = M[m] xor (first |M[m]| bytes of Y[m]); the checksum gains
     pad(C[m]) xor Y[m], which is M[m] followed by the rest of Y[m]. *)
  xor_partial dst last_out src last_off tmp last_len;
  xor_partial sum 0 dst last_out sum last_len;
  xor_into sum 0 sum 0 tmp;
  (* Tag = E(checksum xor Z[m]). *)
  xor_into sum 0 sum 0 z;
  k.cipher_calls <- k.cipher_calls + 1;
  Aes.encrypt_into k.aes ~src:sum ~src_pos:0 ~dst ~dst_pos:(dst_pos + src_len)

(* [src_len >= tag_length] here. *)
let open_core k nb np ~src ~src_pos ~src_len ~dst ~dst_pos =
  let body_len = src_len - tag_length in
  check_span "Ocb.open_into/open_blob: dst" dst dst_pos body_len;
  let z = Bytes.create Block.size in
  let sum = Bytes.make Block.size '\000' in
  let tmp = Bytes.create Block.size in
  z0_into k nb np z;
  let m = blocks_for body_len in
  for i = 1 to m - 1 do
    advance k z i;
    let off = src_pos + (Block.size * (i - 1)) in
    let out = dst_pos + (Block.size * (i - 1)) in
    (* M[i] = D(C[i] xor Z[i]) xor Z[i]; the checksum gains M[i] *)
    xor_into tmp 0 src off z;
    k.cipher_calls <- k.cipher_calls + 1;
    Aes.decrypt_into k.aes ~src:tmp ~src_pos:0 ~dst:tmp ~dst_pos:0;
    xor_into dst out tmp 0 z;
    xor_into sum 0 dst out sum
  done;
  advance k z m;
  let last_off = src_pos + (Block.size * (m - 1)) in
  let last_out = dst_pos + (Block.size * (m - 1)) in
  let last_len = body_len - (Block.size * (m - 1)) in
  (* Stash C[m] zero-padded before the plaintext overwrite ([src] and
     [dst] may alias): the checksum needs pad(C[m]). *)
  let last_ct = Bytes.make Block.size '\000' in
  Bytes.blit src last_off last_ct 0 last_len;
  final_pad k z tmp last_len;
  xor_partial dst last_out last_ct 0 tmp last_len;
  (* Tag = E(checksum xor pad(C[m]) xor Y[m] xor Z[m]). *)
  xor_into sum 0 sum 0 last_ct;
  xor_into sum 0 sum 0 tmp;
  xor_into sum 0 sum 0 z;
  k.cipher_calls <- k.cipher_calls + 1;
  Aes.encrypt_into k.aes ~src:sum ~src_pos:0 ~dst:sum ~dst_pos:0;
  (* Constant-time tag check: OR-fold the XOR of both words so a
     forger learns nothing from verification timing (an early-exit
     compare leaks the length of the matching tag prefix). *)
  let tag = src_pos + body_len in
  Int64.equal 0L
    (Int64.logor
       (Int64.logxor (get64 sum 0) (get64 src tag))
       (Int64.logxor (get64 sum 8) (get64 src (tag + 8))))

(* --- the message loop on the AES instructions (aes_stubs.c) ----------
   One C call seals or opens a message, running the cipher calls for its
   blocks and the final pad interleaved, on [Aes]'s own schedule bytes.
   The stubs check nothing, so every span is checked here first, as for
   the core above; they count nothing, so the caller charges the m + 2
   cipher calls and m [f] applications the core counts one by one. *)

external hw_seal : bytes -> bytes -> bytes -> int -> bytes -> int -> int -> bytes -> int -> unit
  = "ppj_ocb_hw_seal_byte" "ppj_ocb_hw_seal"
[@@noalloc]

external hw_open :
  bytes -> bytes -> bytes -> bytes -> int -> bytes -> int -> int -> bytes -> int -> bool
  = "ppj_ocb_hw_open_byte" "ppj_ocb_hw_open"
[@@noalloc]

let charge k m =
  k.cipher_calls <- k.cipher_calls + m + 2;
  k.f_apps <- k.f_apps + m

(* The entry points run the stubs when [hw], the core above otherwise:
   [Aes.hardware] for the public ones, [false] for {!Portable}. *)
let seal hw k nb np ~src ~src_pos ~src_len ~dst ~dst_pos =
  if hw then begin
    charge k (blocks_for src_len);
    hw_seal (Aes.round_key_bytes k.aes) k.ctx nb np src src_pos src_len dst dst_pos
  end
  else seal_core k nb np ~src ~src_pos ~src_len ~dst ~dst_pos

(* [src_len >= tag_length] here. *)
let open_ hw k nb np ~src ~src_pos ~src_len ~dst ~dst_pos =
  if hw then begin
    let body_len = src_len - tag_length in
    check_span "Ocb.open_into/open_blob: dst" dst dst_pos body_len;
    charge k (blocks_for body_len);
    hw_open (Aes.inverse_round_key_bytes k.aes) (Aes.round_key_bytes k.aes) k.ctx nb np src
      src_pos body_len dst dst_pos
  end
  else open_core k nb np ~src ~src_pos ~src_len ~dst ~dst_pos

let seal_into_on hw k ~nonce ~src ~src_pos ~src_len ~dst ~dst_pos =
  check_span "Ocb.seal_into: src" src src_pos src_len;
  check_span "Ocb.seal_into: dst" dst dst_pos (src_len + tag_length);
  check_nonce nonce;
  seal hw k (Bytes.unsafe_of_string nonce) 0 ~src ~src_pos ~src_len ~dst ~dst_pos

let open_into_on hw k ~nonce ~src ~src_pos ~src_len ~dst ~dst_pos =
  check_span "Ocb.open_into: src" src src_pos src_len;
  src_len >= tag_length
  && begin
       check_nonce nonce;
       open_ hw k (Bytes.unsafe_of_string nonce) 0 ~src ~src_pos ~src_len ~dst ~dst_pos
     end

let nonce_size = Block.size

let seal_blob_on hw k buf ~pos ~len =
  check_span "Ocb.seal_blob" buf pos (nonce_size + len + tag_length);
  let body = pos + nonce_size in
  seal hw k buf pos ~src:buf ~src_pos:body ~src_len:len ~dst:buf ~dst_pos:body

let open_blob_on hw k ~src ~src_pos ~src_len ~dst ~dst_pos =
  check_span "Ocb.open_blob: src" src src_pos src_len;
  src_len >= nonce_size + tag_length
  && open_ hw k src src_pos ~src ~src_pos:(src_pos + nonce_size)
       ~src_len:(src_len - nonce_size) ~dst ~dst_pos

let seal_into k ~nonce ~src ~src_pos ~src_len ~dst ~dst_pos =
  seal_into_on Aes.hardware k ~nonce ~src ~src_pos ~src_len ~dst ~dst_pos

let open_into k ~nonce ~src ~src_pos ~src_len ~dst ~dst_pos =
  open_into_on Aes.hardware k ~nonce ~src ~src_pos ~src_len ~dst ~dst_pos

let seal_blob k buf ~pos ~len = seal_blob_on Aes.hardware k buf ~pos ~len

let open_blob k ~src ~src_pos ~src_len ~dst ~dst_pos =
  open_blob_on Aes.hardware k ~src ~src_pos ~src_len ~dst ~dst_pos

module Portable = struct
  let seal_into k ~nonce ~src ~src_pos ~src_len ~dst ~dst_pos =
    seal_into_on false k ~nonce ~src ~src_pos ~src_len ~dst ~dst_pos

  let open_into k ~nonce ~src ~src_pos ~src_len ~dst ~dst_pos =
    open_into_on false k ~nonce ~src ~src_pos ~src_len ~dst ~dst_pos

  let seal_blob k buf ~pos ~len = seal_blob_on false k buf ~pos ~len

  let open_blob k ~src ~src_pos ~src_len ~dst ~dst_pos =
    open_blob_on false k ~src ~src_pos ~src_len ~dst ~dst_pos
end

(* --- string API (thin wrappers over the in-place core) --------------- *)

let encrypt k ~nonce msg =
  let len = String.length msg in
  let out = Bytes.create (len + tag_length) in
  seal_into k ~nonce ~src:(Bytes.unsafe_of_string msg) ~src_pos:0 ~src_len:len ~dst:out
    ~dst_pos:0;
  Bytes.unsafe_to_string out

let decrypt k ~nonce ct =
  let len = String.length ct in
  if len < tag_length then None
  else begin
    let out = Bytes.create (len - tag_length) in
    if
      open_into k ~nonce ~src:(Bytes.unsafe_of_string ct) ~src_pos:0 ~src_len:len ~dst:out
        ~dst_pos:0
    then Some (Bytes.unsafe_to_string out)
    else None
  end
