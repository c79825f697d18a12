(* GF(2^8) arithmetic with the AES polynomial x^8 + x^4 + x^3 + x + 1. *)
let gmul a b =
  let rec go a b acc =
    if b = 0 then acc
    else
      let acc = if b land 1 = 1 then acc lxor a else acc in
      let a = if a land 0x80 <> 0 then ((a lsl 1) lxor 0x11b) land 0xff else (a lsl 1) land 0xff in
      go a (b lsr 1) acc
  in
  go a b 0

let rotl8 x n = ((x lsl n) lor (x lsr (8 - n))) land 0xff

(* The S-box is GF(2^8) inversion followed by the affine transform; building
   it from the definition avoids transcription errors in a 256-entry table.
   3 generates the multiplicative group, so tabulating its powers and their
   logs gives every inverse as inv(a) = 3^(255 - log a) in 255 steps:
   every process builds the boxes at start-up, and a search over all
   products takes milliseconds. *)
let sbox, inv_sbox =
  let exp = Array.make 255 0 and log = Array.make 256 0 in
  let x = ref 1 in
  for i = 0 to 254 do
    exp.(i) <- !x;
    log.(!x) <- i;
    x := gmul !x 3
  done;
  let inv a = if a = 0 then 0 else exp.((255 - log.(a)) mod 255) in
  let s = Array.make 256 0 in
  let si = Array.make 256 0 in
  for x = 0 to 255 do
    let b = inv x in
    let v = b lxor rotl8 b 1 lxor rotl8 b 2 lxor rotl8 b 3 lxor rotl8 b 4 lxor 0x63 in
    s.(x) <- v;
    si.(v) <- x
  done;
  (s, si)

(* Precomputed GF(2^8) multiplication tables keep MixColumns off the
   bit-serial gmul path (the coprocessor simulator encrypts every single
   tuple transfer, so AES throughput dominates measured-run wall time). *)
let mul_table k = Array.init 256 (fun x -> gmul x k)

let t2 = mul_table 2
let t3 = mul_table 3
let t9 = mul_table 9
let t11 = mul_table 11
let t13 = mul_table 13
let t14 = mul_table 14

(* --- T-tables ---------------------------------------------------------
   Each round of the cipher is SubBytes, ShiftRows, MixColumns and
   AddRoundKey.  With the state held as four big-endian 32-bit column
   words s0..s3 (column c = input bytes 4c..4c+3), the first three steps
   fuse into four table lookups per output word:

     out_c = Te0[s_c >> 24] ^ Te1[(s_{c+1} >> 16) & ff]
           ^ Te2[(s_{c+2} >> 8) & ff] ^ Te3[s_{c+3} & ff] ^ rk

   where Te0[x] packs MixColumns' first-column coefficients of S[x]
   ((2,1,1,3) · S[x]) and Te1..Te3 are byte rotations of Te0.  The
   decryption set Td0..Td3 does the same for InvSubBytes/InvShiftRows/
   InvMixColumns with the (14,9,13,11) coefficient column of S^-1.

   The four tables of a direction sit back to back in one 1024-entry
   array, Te_j at offset 256 j, so a round keeps one table base live
   instead of four. *)

let rotr32_8 w = ((w lsr 8) lor (w lsl 24)) land 0xFFFFFFFF

let te, td =
  let e = Array.make 1024 0 and d = Array.make 1024 0 in
  for x = 0 to 255 do
    let s = sbox.(x) in
    let si = inv_sbox.(x) in
    let w = ref ((t2.(s) lsl 24) lor (s lsl 16) lor (s lsl 8) lor t3.(s)) in
    let v = ref ((t14.(si) lsl 24) lor (t9.(si) lsl 16) lor (t13.(si) lsl 8) lor t11.(si)) in
    for j = 0 to 3 do
      e.((256 * j) + x) <- !w;
      d.((256 * j) + x) <- !v;
      w := rotr32_8 !w;
      v := rotr32_8 !v
    done
  done;
  (e, d)

(* Round constants, hoisted to module level: the MMO hash expands a fresh
   key per 16-byte block, so rebuilding this table inside [expand] was a
   measurable per-block cost. *)
let rcon =
  let t = Array.make 11 0 in
  let r = ref 1 in
  for i = 1 to 10 do
    t.(i) <- !r lsl 24;
    r := if !r land 0x80 <> 0 then ((!r lsl 1) lxor 0x11b) land 0xff else (!r lsl 1) land 0xff
  done;
  t

(* Round-key words are stored as big-endian 32-bit words; the mask drops
   the sign extension of [Int32.to_int]. *)
let get32 b pos = Int32.to_int (Bytes.get_int32_be b pos) land 0xFFFFFFFF
let put32 b pos w = Bytes.set_int32_be b pos (Int32.of_int w)

(* A schedule is held twice: as words for the T-table rounds and as the
   same words' bytes, round r at offset 16 r, for the AES instructions. *)
type schedule = { words : int array; bytes : bytes }

type key = {
  rounds : int;
  rk : int array; (* 4 words per round, flat: rk.(4*r + c) *)
  rk_bytes : bytes; (* rk's bytes *)
  mutable drk : schedule option;
      (* InvMixColumns-transformed round keys for the equivalent inverse
         cipher, built on first decryption (most keys — the PRF, the
         hash's per-block keys — only ever encrypt) *)
}

(* S-box indices are masked bytes, so unsafe_get is in bounds. *)
let sub_word x =
  (Array.unsafe_get sbox ((x lsr 24) land 0xff) lsl 24)
  lor (Array.unsafe_get sbox ((x lsr 16) land 0xff) lsl 16)
  lor (Array.unsafe_get sbox ((x lsr 8) land 0xff) lsl 8)
  lor Array.unsafe_get sbox (x land 0xff)

let rot_word x = ((x lsl 8) lor (x lsr 24)) land 0xFFFFFFFF

(* Each word is written to both forms as it is computed: a second pass
   converting words to bytes would cost the key schedule a third of its
   rate, and the MMO hash expands a key per block. *)
let store w kb i v =
  Array.unsafe_set w i v;
  put32 kb (4 * i) v

(* One round key (four words) per iteration, carried in registers: word
   4r is the previous round's last word through RotWord, SubWord and the
   round constant, and each later word chains on the one before. *)
let expand_of get len =
  if len <> 16 then invalid_arg "Aes.expand: key must be 16 bytes";
  let nr = 10 in
  let w = Array.make (4 * (nr + 1)) 0 in
  let kb = Bytes.create (16 * (nr + 1)) in
  let word i =
    (get (4 * i) lsl 24)
    lor (get ((4 * i) + 1) lsl 16)
    lor (get ((4 * i) + 2) lsl 8)
    lor get ((4 * i) + 3)
  in
  let w0 = ref (word 0) and w1 = ref (word 1) and w2 = ref (word 2) and w3 = ref (word 3) in
  store w kb 0 !w0;
  store w kb 1 !w1;
  store w kb 2 !w2;
  store w kb 3 !w3;
  for r = 1 to nr do
    w0 := !w0 lxor sub_word (rot_word !w3) lxor Array.unsafe_get rcon r;
    w1 := !w1 lxor !w0;
    w2 := !w2 lxor !w1;
    w3 := !w3 lxor !w2;
    store w kb (4 * r) !w0;
    store w kb ((4 * r) + 1) !w1;
    store w kb ((4 * r) + 2) !w2;
    store w kb ((4 * r) + 3) !w3
  done;
  { rounds = nr; rk = w; rk_bytes = kb; drk = None }

let expand raw = expand_of (fun i -> Char.code (String.unsafe_get raw i)) (String.length raw)

let expand_bytes raw ~pos =
  if pos < 0 || pos + 16 > Bytes.length raw then invalid_arg "Aes.expand_bytes";
  expand_of (fun i -> Char.code (Bytes.unsafe_get raw (pos + i))) 16

(* InvMixColumns on a round-key word, for the equivalent inverse cipher. *)
let inv_mix_word w =
  let a0 = (w lsr 24) land 0xff and a1 = (w lsr 16) land 0xff in
  let a2 = (w lsr 8) land 0xff and a3 = w land 0xff in
  ((t14.(a0) lxor t11.(a1) lxor t13.(a2) lxor t9.(a3)) lsl 24)
  lor ((t9.(a0) lxor t14.(a1) lxor t11.(a2) lxor t13.(a3)) lsl 16)
  lor ((t13.(a0) lxor t9.(a1) lxor t14.(a2) lxor t11.(a3)) lsl 8)
  lor (t11.(a0) lxor t13.(a1) lxor t9.(a2) lxor t14.(a3))

let dkeys k =
  match k.drk with
  | Some d -> d
  | None ->
      let nr = k.rounds and rk = k.rk in
      let d = Array.make (4 * (nr + 1)) 0 in
      for c = 0 to 3 do
        d.(c) <- rk.((4 * nr) + c);
        d.((4 * nr) + c) <- rk.(c)
      done;
      for r = 1 to nr - 1 do
        for c = 0 to 3 do
          d.((4 * r) + c) <- inv_mix_word rk.((4 * (nr - r)) + c)
        done
      done;
      let db = Bytes.create (16 * (nr + 1)) in
      Array.iteri (fun i v -> put32 db (4 * i) v) d;
      let s = { words = d; bytes = db } in
      k.drk <- Some s;
      s

let check_range name buf pos =
  if pos < 0 || pos + 16 > Bytes.length buf then invalid_arg name

(* --- T-table rounds ---------------------------------------------------
   The software cipher: the path on CPUs without the AES instructions,
   and the reference the hardware path is tested against.

   All table indices below are a masked byte (0..255) plus the offset of
   one of the four 256-entry quarters (state words never exceed 32 bits),
   so unsafe_get is in bounds by construction. *)
let tbl (t : int array) i = Array.unsafe_get t i

(* The rounds run in a [for] loop over local refs, which the native
   compiler keeps in registers, so a block allocates nothing.  A local
   recursive function would close over the key schedule and destination
   and allocate that closure on every call; a top-level one taking them
   as arguments measured slower than this loop. *)
let final_enc rk i a b c d =
  ((tbl sbox (a lsr 24) lsl 24)
  lor (tbl sbox ((b lsr 16) land 0xff) lsl 16)
  lor (tbl sbox ((c lsr 8) land 0xff) lsl 8)
  lor tbl sbox (d land 0xff))
  lxor Array.unsafe_get rk i

(* Unchecked: callers have checked both ranges. *)
let table_encrypt k src src_pos dst dst_pos =
  let rk = k.rk in
  let s0 = ref (get32 src src_pos lxor rk.(0)) in
  let s1 = ref (get32 src (src_pos + 4) lxor rk.(1)) in
  let s2 = ref (get32 src (src_pos + 8) lxor rk.(2)) in
  let s3 = ref (get32 src (src_pos + 12) lxor rk.(3)) in
  for r = 1 to k.rounds - 1 do
    let b = 4 * r in
    let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
    s0 :=
      tbl te (a0 lsr 24)
      lxor tbl te (256 lor ((a1 lsr 16) land 0xff))
      lxor tbl te (512 lor ((a2 lsr 8) land 0xff))
      lxor tbl te (768 lor (a3 land 0xff))
      lxor Array.unsafe_get rk b;
    s1 :=
      tbl te (a1 lsr 24)
      lxor tbl te (256 lor ((a2 lsr 16) land 0xff))
      lxor tbl te (512 lor ((a3 lsr 8) land 0xff))
      lxor tbl te (768 lor (a0 land 0xff))
      lxor Array.unsafe_get rk (b + 1);
    s2 :=
      tbl te (a2 lsr 24)
      lxor tbl te (256 lor ((a3 lsr 16) land 0xff))
      lxor tbl te (512 lor ((a0 lsr 8) land 0xff))
      lxor tbl te (768 lor (a1 land 0xff))
      lxor Array.unsafe_get rk (b + 2);
    s3 :=
      tbl te (a3 lsr 24)
      lxor tbl te (256 lor ((a0 lsr 16) land 0xff))
      lxor tbl te (512 lor ((a1 lsr 8) land 0xff))
      lxor tbl te (768 lor (a2 land 0xff))
      lxor Array.unsafe_get rk (b + 3)
  done;
  let b = 4 * k.rounds in
  let s0 = !s0 and s1 = !s1 and s2 = !s2 and s3 = !s3 in
  put32 dst dst_pos (final_enc rk b s0 s1 s2 s3);
  put32 dst (dst_pos + 4) (final_enc rk (b + 1) s1 s2 s3 s0);
  put32 dst (dst_pos + 8) (final_enc rk (b + 2) s2 s3 s0 s1);
  put32 dst (dst_pos + 12) (final_enc rk (b + 3) s3 s0 s1 s2)

let final_dec rk i a b c d =
  ((tbl inv_sbox (a lsr 24) lsl 24)
  lor (tbl inv_sbox ((b lsr 16) land 0xff) lsl 16)
  lor (tbl inv_sbox ((c lsr 8) land 0xff) lsl 8)
  lor tbl inv_sbox (d land 0xff))
  lxor Array.unsafe_get rk i

let table_decrypt k src src_pos dst dst_pos =
  let rk = (dkeys k).words in
  let s0 = ref (get32 src src_pos lxor rk.(0)) in
  let s1 = ref (get32 src (src_pos + 4) lxor rk.(1)) in
  let s2 = ref (get32 src (src_pos + 8) lxor rk.(2)) in
  let s3 = ref (get32 src (src_pos + 12) lxor rk.(3)) in
  for r = 1 to k.rounds - 1 do
    let b = 4 * r in
    let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
    s0 :=
      tbl td (a0 lsr 24)
      lxor tbl td (256 lor ((a3 lsr 16) land 0xff))
      lxor tbl td (512 lor ((a2 lsr 8) land 0xff))
      lxor tbl td (768 lor (a1 land 0xff))
      lxor Array.unsafe_get rk b;
    s1 :=
      tbl td (a1 lsr 24)
      lxor tbl td (256 lor ((a0 lsr 16) land 0xff))
      lxor tbl td (512 lor ((a3 lsr 8) land 0xff))
      lxor tbl td (768 lor (a2 land 0xff))
      lxor Array.unsafe_get rk (b + 1);
    s2 :=
      tbl td (a2 lsr 24)
      lxor tbl td (256 lor ((a1 lsr 16) land 0xff))
      lxor tbl td (512 lor ((a0 lsr 8) land 0xff))
      lxor tbl td (768 lor (a3 land 0xff))
      lxor Array.unsafe_get rk (b + 2);
    s3 :=
      tbl td (a3 lsr 24)
      lxor tbl td (256 lor ((a2 lsr 16) land 0xff))
      lxor tbl td (512 lor ((a1 lsr 8) land 0xff))
      lxor tbl td (768 lor (a0 land 0xff))
      lxor Array.unsafe_get rk (b + 3)
  done;
  let b = 4 * k.rounds in
  let s0 = !s0 and s1 = !s1 and s2 = !s2 and s3 = !s3 in
  put32 dst dst_pos (final_dec rk b s0 s3 s2 s1);
  put32 dst (dst_pos + 4) (final_dec rk (b + 1) s1 s0 s3 s2);
  put32 dst (dst_pos + 8) (final_dec rk (b + 2) s2 s1 s0 s3);
  put32 dst (dst_pos + 12) (final_dec rk (b + 3) s3 s2 s1 s0)

module Table = struct
  let encrypt_into k ~src ~src_pos ~dst ~dst_pos =
    check_range "Aes.Table.encrypt_into: src" src src_pos;
    check_range "Aes.Table.encrypt_into: dst" dst dst_pos;
    table_encrypt k src src_pos dst dst_pos

  let decrypt_into k ~src ~src_pos ~dst ~dst_pos =
    check_range "Aes.Table.decrypt_into: src" src src_pos;
    check_range "Aes.Table.decrypt_into: dst" dst dst_pos;
    table_decrypt k src src_pos dst dst_pos
end

(* --- AES instructions (aes_stubs.c) -----------------------------------
   The stubs read the schedule's bytes and check no ranges. *)
external hw_available : unit -> bool = "ppj_aes_hw_available"

external hw_encrypt : bytes -> bytes -> int -> bytes -> int -> unit = "ppj_aes_hw_encrypt"
[@@noalloc]

external hw_decrypt : bytes -> bytes -> int -> bytes -> int -> unit = "ppj_aes_hw_decrypt"
[@@noalloc]

let hardware = hw_available ()

let round_key_bytes k = k.rk_bytes
let inverse_round_key_bytes k = (dkeys k).bytes

let encrypt_into k ~src ~src_pos ~dst ~dst_pos =
  check_range "Aes.encrypt_into: src" src src_pos;
  check_range "Aes.encrypt_into: dst" dst dst_pos;
  if hardware then hw_encrypt k.rk_bytes src src_pos dst dst_pos
  else table_encrypt k src src_pos dst dst_pos

let decrypt_into k ~src ~src_pos ~dst ~dst_pos =
  check_range "Aes.decrypt_into: src" src src_pos;
  check_range "Aes.decrypt_into: dst" dst dst_pos;
  if hardware then hw_decrypt (dkeys k).bytes src src_pos dst dst_pos
  else table_decrypt k src src_pos dst dst_pos

let encrypt k b =
  let dst = Bytes.create 16 in
  encrypt_into k ~src:(Bytes.unsafe_of_string (Block.to_string b)) ~src_pos:0 ~dst ~dst_pos:0;
  Block.of_bytes dst

let decrypt k b =
  let dst = Bytes.create 16 in
  decrypt_into k ~src:(Bytes.unsafe_of_string (Block.to_string b)) ~src_pos:0 ~dst ~dst_pos:0;
  Block.of_bytes dst

(* --- Reference path ---------------------------------------------------
   The original byte-wise implementation (16-int state, explicit
   SubBytes/ShiftRows/MixColumns passes), retained as the cross-check
   oracle for the fused T-table rounds and as the baseline the crypto
   bench measures speedup against. *)
module Reference = struct
  let add_round_key st rk base =
    for c = 0 to 3 do
      let w = rk.(base + c) in
      st.(4 * c) <- st.(4 * c) lxor ((w lsr 24) land 0xff);
      st.((4 * c) + 1) <- st.((4 * c) + 1) lxor ((w lsr 16) land 0xff);
      st.((4 * c) + 2) <- st.((4 * c) + 2) lxor ((w lsr 8) land 0xff);
      st.((4 * c) + 3) <- st.((4 * c) + 3) lxor (w land 0xff)
    done

  let sub_bytes st box = Array.iteri (fun i v -> st.(i) <- box.(v)) st

  let shift_rows st =
    let t = Array.copy st in
    for r = 1 to 3 do
      for c = 0 to 3 do
        st.(r + (4 * c)) <- t.(r + (4 * ((c + r) mod 4)))
      done
    done

  let inv_shift_rows st =
    let t = Array.copy st in
    for r = 1 to 3 do
      for c = 0 to 3 do
        st.(r + (4 * ((c + r) mod 4))) <- t.(r + (4 * c))
      done
    done

  let mix_columns st =
    for c = 0 to 3 do
      let a0 = st.(4 * c) and a1 = st.((4 * c) + 1) in
      let a2 = st.((4 * c) + 2) and a3 = st.((4 * c) + 3) in
      st.(4 * c) <- t2.(a0) lxor t3.(a1) lxor a2 lxor a3;
      st.((4 * c) + 1) <- a0 lxor t2.(a1) lxor t3.(a2) lxor a3;
      st.((4 * c) + 2) <- a0 lxor a1 lxor t2.(a2) lxor t3.(a3);
      st.((4 * c) + 3) <- t3.(a0) lxor a1 lxor a2 lxor t2.(a3)
    done

  let inv_mix_columns st =
    for c = 0 to 3 do
      let a0 = st.(4 * c) and a1 = st.((4 * c) + 1) in
      let a2 = st.((4 * c) + 2) and a3 = st.((4 * c) + 3) in
      st.(4 * c) <- t14.(a0) lxor t11.(a1) lxor t13.(a2) lxor t9.(a3);
      st.((4 * c) + 1) <- t9.(a0) lxor t14.(a1) lxor t11.(a2) lxor t13.(a3);
      st.((4 * c) + 2) <- t13.(a0) lxor t9.(a1) lxor t14.(a2) lxor t11.(a3);
      st.((4 * c) + 3) <- t11.(a0) lxor t13.(a1) lxor t9.(a2) lxor t14.(a3)
    done

  let state_of_block b =
    let s = Block.to_string b in
    Array.init 16 (fun i -> Char.code s.[i])

  let block_of_state st =
    let b = Bytes.create 16 in
    Array.iteri (fun i v -> Bytes.set b i (Char.chr v)) st;
    Block.of_bytes b

  let encrypt k b =
    let st = state_of_block b in
    add_round_key st k.rk 0;
    for r = 1 to k.rounds - 1 do
      sub_bytes st sbox;
      shift_rows st;
      mix_columns st;
      add_round_key st k.rk (4 * r)
    done;
    sub_bytes st sbox;
    shift_rows st;
    add_round_key st k.rk (4 * k.rounds);
    block_of_state st

  let decrypt k b =
    let st = state_of_block b in
    add_round_key st k.rk (4 * k.rounds);
    inv_shift_rows st;
    sub_bytes st inv_sbox;
    for r = k.rounds - 1 downto 1 do
      add_round_key st k.rk (4 * r);
      inv_mix_columns st;
      inv_shift_rows st;
      sub_bytes st inv_sbox
    done;
    add_round_key st k.rk 0;
    block_of_state st
end

let sbox x = sbox.(x)
let inv_sbox x = inv_sbox.(x)
