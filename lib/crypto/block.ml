type t = string

let size = 16

let zero = String.make size '\000'

let of_string s =
  if String.length s <> size then
    invalid_arg (Printf.sprintf "Block.of_string: %d bytes" (String.length s));
  s

let to_string t = t
let of_bytes b = of_string (Bytes.to_string b)

let xor a b =
  let r = Bytes.create size in
  for i = 0 to size - 1 do
    Bytes.unsafe_set r i
      (Char.chr (Char.code (String.unsafe_get a i) lxor Char.code (String.unsafe_get b i)))
  done;
  Bytes.unsafe_to_string r

(* Reduction polynomial x^128 + x^7 + x^2 + x + 1: the carry out of the top
   bit folds back as 0x87 into the low byte.  The shift runs on the
   block's two big-endian 64-bit halves, in place: every OCB key doubles
   L once for each offset a message can reach. *)
let double_into b ~src ~dst =
  let hi = Bytes.get_int64_be b src and lo = Bytes.get_int64_be b (src + 8) in
  Bytes.set_int64_be b dst (Int64.logor (Int64.shift_left hi 1) (Int64.shift_right_logical lo 63));
  Bytes.set_int64_be b (dst + 8)
    (Int64.logxor (Int64.shift_left lo 1) (Int64.mul 0x87L (Int64.shift_right_logical hi 63)))

let double a =
  let r = Bytes.of_string a in
  double_into r ~src:0 ~dst:0;
  Bytes.unsafe_to_string r

let halve a =
  let r = Bytes.create size in
  let low_bit = Char.code a.[size - 1] land 1 in
  let carry = ref 0 in
  for i = 0 to size - 1 do
    let v = Char.code a.[i] in
    Bytes.set r i (Char.chr ((v lsr 1) lor (!carry lsl 7)));
    carry := v land 1
  done;
  if low_bit = 1 then begin
    (* x^-1 folds the dropped bit back as x^127 + x^6 + x + 1. *)
    Bytes.set r 0 (Char.chr (Char.code (Bytes.get r 0) lxor 0x80));
    Bytes.set r (size - 1) (Char.chr (Char.code (Bytes.get r (size - 1)) lxor 0x43))
  end;
  Bytes.unsafe_to_string r

let of_int64_pair hi lo =
  let r = Bytes.create size in
  Bytes.set_int64_be r 0 hi;
  Bytes.set_int64_be r 8 lo;
  Bytes.unsafe_to_string r

let of_int n = of_int64_pair 0L (Int64.of_int n)

let ntz n =
  if n <= 0 then invalid_arg "Block.ntz";
  let rec go n acc = if n land 1 = 1 then acc else go (n lsr 1) (acc + 1) in
  go n 0

let equal = String.equal

(* Constant-time comparison: fold the XOR of every byte pair so the
   running time depends only on the (public) lengths, never on where the
   first difference sits — the early-exit [String.equal] is exactly the
   tag-check timing channel the OCB spec warns against. *)
let ct_equal a b =
  let la = String.length a and lb = String.length b in
  if la <> lb then false
  else begin
    let d = ref 0 in
    for i = 0 to la - 1 do
      d := !d lor (Char.code (String.unsafe_get a i) lxor Char.code (String.unsafe_get b i))
    done;
    !d = 0
  end

let pp ppf t = String.iter (fun c -> Format.fprintf ppf "%02x" (Char.code c)) t
