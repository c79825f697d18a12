/* AES-128 block rounds, and OCB's message loop, on the CPU's AES
 * instructions (AES-NI).
 *
 * The OCaml side (aes.ml) expands the key and passes the round keys as
 * 176 bytes, round r at offset 16 r: the encryption schedule for
 * encrypt, and for decrypt the equivalent-inverse schedule (round keys
 * in reverse order, InvMixColumns applied to rounds 1..9), which is the
 * form AESDEC expects.  The stubs do no bounds checking: Aes.encrypt_into,
 * Aes.decrypt_into and every Ocb entry point check their ranges before
 * calling them.  They allocate nothing and never raise, so the externals
 * are [@@noalloc].  Every block, or group of blocks, is loaded whole
 * before any byte of it is stored, so source and destination may be the
 * same bytes.
 *
 * The intrinsics live only in functions compiled for the "aes" target;
 * the library itself is built without -maes, so one binary runs on any
 * x86-64, and ppj_aes_hw_available asks CPUID whether they may be
 * called.  On other architectures and compilers the file compiles to
 * stubs that report the instructions absent.
 */

#include <string.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

#include <wmmintrin.h>

#define LOAD(p) _mm_loadu_si128((const __m128i *)(p))
#define STORE(p, v) _mm_storeu_si128((__m128i *)(p), (v))
#define ROUND_KEY(rk, r) LOAD((rk) + 16 * (r))

/* Lanes 0..nd-1 decrypt under [dk] and lanes nd..nd+ne-1 encrypt under
   [ek], round by round.  Always inlined with constant counts, so the
   lane loops unroll and the lanes stay in registers. */
static inline __attribute__((always_inline, target("aes"))) void
rounds(const unsigned char *dk, const unsigned char *ek, __m128i *s, int nd, int ne)
{
  int j, r;
#pragma GCC unroll 8
  for (j = 0; j < nd; j++) s[j] = _mm_xor_si128(s[j], ROUND_KEY(dk, 0));
#pragma GCC unroll 8
  for (j = nd; j < nd + ne; j++) s[j] = _mm_xor_si128(s[j], ROUND_KEY(ek, 0));
#pragma GCC unroll 9
  for (r = 1; r < 10; r++) {
#pragma GCC unroll 8
    for (j = 0; j < nd; j++) s[j] = _mm_aesdec_si128(s[j], ROUND_KEY(dk, r));
#pragma GCC unroll 8
    for (j = nd; j < nd + ne; j++) s[j] = _mm_aesenc_si128(s[j], ROUND_KEY(ek, r));
  }
#pragma GCC unroll 8
  for (j = 0; j < nd; j++) s[j] = _mm_aesdeclast_si128(s[j], ROUND_KEY(dk, 10));
#pragma GCC unroll 8
  for (j = nd; j < nd + ne; j++) s[j] = _mm_aesenclast_si128(s[j], ROUND_KEY(ek, 10));
}

/* E(v) under [rk]. */
static inline __attribute__((always_inline, target("aes"))) __m128i
enc1(const unsigned char *rk, __m128i v)
{
  __m128i s[1] = { v };
  rounds(rk, rk, s, 0, 1);
  return s[0];
}

__attribute__((target("aes"))) static void enc_block(const unsigned char *rk,
                                                     const unsigned char *src,
                                                     unsigned char *dst)
{
  STORE(dst, enc1(rk, LOAD(src)));
}

__attribute__((target("aes"))) static void dec_block(const unsigned char *dk,
                                                     const unsigned char *src,
                                                     unsigned char *dst)
{
  __m128i s[1] = { LOAD(src) };
  rounds(dk, dk, s, 1, 0);
  STORE(dst, s[0]);
}

value ppj_aes_hw_available(value unit)
{
  (void)unit;
  __builtin_cpu_init();
  return Val_bool(__builtin_cpu_supports("aes"));
}

value ppj_aes_hw_encrypt(value rk, value src, value src_pos, value dst, value dst_pos)
{
  enc_block(Bytes_val(rk), Bytes_val(src) + Long_val(src_pos),
            Bytes_val(dst) + Long_val(dst_pos));
  return Val_unit;
}

value ppj_aes_hw_decrypt(value rk, value src, value src_pos, value dst, value dst_pos)
{
  dec_block(Bytes_val(rk), Bytes_val(src) + Long_val(src_pos),
            Bytes_val(dst) + Long_val(dst_pos));
  return Val_unit;
}

/* --- OCB -----------------------------------------------------------------
 * One call seals or opens one message, the same bytes as the OCaml core
 * in ocb.ml (the test suite checks the two against each other).  [ctx]
 * is the key's offset table, built once per key in ocb.ml: L(-1) at
 * offset 0, then L(j) = L x^j at offset 16 (j + 1), for every j a
 * message can reach.
 *
 * The cipher calls for the message blocks do not depend on each other,
 * nor does the final block's pad E(len xor L(-1) xor Z[m]), which needs
 * only the offset walk.  So they run in groups whose rounds interleave:
 * GROUP full blocks at a time while more than GROUP remain, then the last
 * 0..GROUP full blocks with the pad in one more lane.  A message waits on
 * the nonce mix, its groups, and the tag: a 5-block slot on 3 cipher
 * latencies, not 7. */

#define GROUP 4
#define L_AT(ctx, j) LOAD((ctx) + 16 * ((j) + 1))

/* The running state of one message: Z[i - 1] and the checksum of
   M[1..i-1], before block i. */
typedef struct {
  __m128i z, sum;
  intnat i;
} walk;

/* Offsets Z[i..i+n-1] into off[0..n-1], advancing the walk's Z. */
static inline __attribute__((always_inline, target("aes"))) void
offsets(const unsigned char *ctx, walk *w, __m128i *off, int n)
{
  int j;
#pragma GCC unroll 8
  for (j = 0; j < n; j++) {
    w->z = _mm_xor_si128(w->z, L_AT(ctx, __builtin_ctzll((unsigned long long)(w->i + j))));
    off[j] = w->z;
  }
}

/* Z[m] xor L(-1) xor len, the input of the final block's pad, where
   [last_len] (0..16) is the final block's length in bytes: the length is
   the block's bit count as a 128-bit big-endian number. */
static inline __attribute__((always_inline, target("aes"))) __m128i
pad_input(const unsigned char *ctx, __m128i zm, intnat last_len)
{
  __m128i len = _mm_slli_si128(_mm_cvtsi32_si128((int)(8 * last_len)), 15);
  return _mm_xor_si128(_mm_xor_si128(len, LOAD(ctx)), zm);
}

/* Seal n full blocks from block w->i, and when [pad], the final pad in
   lane n, returned.  C[i] = E(M[i] xor Z[i]) xor Z[i]; the checksum
   gains M[i]. */
static inline __attribute__((always_inline, target("aes"))) __m128i
seal_group(const unsigned char *rk, const unsigned char *ctx, const unsigned char *src,
           unsigned char *dst, walk *w, int n, int pad, intnat last_len)
{
  __m128i s[GROUP + 1], off[GROUP];
  int j;
  offsets(ctx, w, off, n);
#pragma GCC unroll 8
  for (j = 0; j < n; j++) {
    __m128i p = LOAD(src + 16 * (w->i - 1 + j));
    w->sum = _mm_xor_si128(w->sum, p);
    s[j] = _mm_xor_si128(p, off[j]);
  }
  if (pad) {
    w->z = _mm_xor_si128(w->z, L_AT(ctx, __builtin_ctzll((unsigned long long)(w->i + n))));
    s[n] = pad_input(ctx, w->z, last_len);
  }
  rounds(rk, rk, s, 0, n + pad);
#pragma GCC unroll 8
  for (j = 0; j < n; j++) STORE(dst + 16 * (w->i - 1 + j), _mm_xor_si128(s[j], off[j]));
  w->i += n;
  return pad ? s[n] : w->z;
}

/* Open n full blocks from block w->i, and when [pad], the final pad in
   lane n, returned.  M[i] = D(C[i] xor Z[i]) xor Z[i]; the checksum gains
   M[i].  The final block's ciphertext is stashed zero-padded in [last_ct]
   before any plaintext is stored, as source and destination may be the
   same bytes. */
static inline __attribute__((always_inline, target("aes"))) __m128i
open_group(const unsigned char *dk, const unsigned char *rk, const unsigned char *ctx,
           const unsigned char *src, unsigned char *dst, walk *w, int n, int pad,
           intnat last_len, unsigned char *last_ct)
{
  __m128i s[GROUP + 1], off[GROUP];
  int j;
  offsets(ctx, w, off, n);
#pragma GCC unroll 8
  for (j = 0; j < n; j++) s[j] = _mm_xor_si128(LOAD(src + 16 * (w->i - 1 + j)), off[j]);
  if (pad) {
    w->z = _mm_xor_si128(w->z, L_AT(ctx, __builtin_ctzll((unsigned long long)(w->i + n))));
    s[n] = pad_input(ctx, w->z, last_len);
    memcpy(last_ct, src + 16 * (w->i - 1 + n), (size_t)last_len);
  }
  rounds(dk, rk, s, n, pad);
#pragma GCC unroll 8
  for (j = 0; j < n; j++) {
    __m128i p = _mm_xor_si128(s[j], off[j]);
    w->sum = _mm_xor_si128(w->sum, p);
    STORE(dst + 16 * (w->i - 1 + j), p);
  }
  w->i += n;
  return pad ? s[n] : w->z;
}

static inline intnat blocks_for(intnat len) { return len == 0 ? 1 : (len + 15) / 16; }

/* The final group: m - i (0..GROUP) full blocks and the pad, dispatched
   on the count so each case is a group of constant width (one case per
   count, for GROUP = 4). */
#define FINAL_CASES(call) \
  switch (m - w.i) {      \
  case 0: y = call(0); break; \
  case 1: y = call(1); break; \
  case 2: y = call(2); break; \
  case 3: y = call(3); break; \
  default: y = call(4); break; \
  }

__attribute__((target("aes"))) static void ocb_seal(const unsigned char *rk,
                                                    const unsigned char *ctx,
                                                    const unsigned char *nonce,
                                                    const unsigned char *src, intnat len,
                                                    unsigned char *dst)
{
  intnat m = blocks_for(len), last_len = len - 16 * (m - 1);
  unsigned char buf[16];
  __m128i y, c;
  walk w;
  w.z = enc1(rk, _mm_xor_si128(LOAD(nonce), L_AT(ctx, 0)));
  w.sum = _mm_setzero_si128();
  w.i = 1;
  while (m - w.i > GROUP) seal_group(rk, ctx, src, dst, &w, GROUP, 0, 0);
#define SEAL_FINAL(n) seal_group(rk, ctx, src, dst, &w, n, 1, last_len)
  FINAL_CASES(SEAL_FINAL)
#undef SEAL_FINAL
  /* C[m] = M[m] xor the first |M[m]| bytes of Y[m]; the checksum gains
     pad(C[m]) xor Y[m]; Tag = E(checksum xor Z[m]). */
  memset(buf, 0, sizeof buf);
  memcpy(buf, src + 16 * (m - 1), (size_t)last_len);
  c = _mm_xor_si128(LOAD(buf), y);
  STORE(buf, c);
  memcpy(dst + 16 * (m - 1), buf, (size_t)last_len);
  memset(buf + last_len, 0, (size_t)(16 - last_len));
  w.sum = _mm_xor_si128(_mm_xor_si128(w.sum, LOAD(buf)), _mm_xor_si128(y, w.z));
  STORE(dst + len, enc1(rk, w.sum));
}

__attribute__((target("aes"))) static int ocb_open(const unsigned char *dk,
                                                   const unsigned char *rk,
                                                   const unsigned char *ctx,
                                                   const unsigned char *nonce,
                                                   const unsigned char *src, intnat len,
                                                   unsigned char *dst)
{
  intnat m = blocks_for(len), last_len = len - 16 * (m - 1);
  unsigned char last_ct[16], buf[16];
  __m128i tag = LOAD(src + len), y, d;
  walk w;
  w.z = enc1(rk, _mm_xor_si128(LOAD(nonce), L_AT(ctx, 0)));
  w.sum = _mm_setzero_si128();
  w.i = 1;
  memset(last_ct, 0, sizeof last_ct);
  while (m - w.i > GROUP) open_group(dk, rk, ctx, src, dst, &w, GROUP, 0, 0, last_ct);
#define OPEN_FINAL(n) open_group(dk, rk, ctx, src, dst, &w, n, 1, last_len, last_ct)
  FINAL_CASES(OPEN_FINAL)
#undef OPEN_FINAL
  /* M[m] = C[m] xor the first |C[m]| bytes of Y[m];
     Tag = E(checksum xor pad(C[m]) xor Y[m] xor Z[m]). */
  STORE(buf, _mm_xor_si128(LOAD(last_ct), y));
  memcpy(dst + 16 * (m - 1), buf, (size_t)last_len);
  w.sum = _mm_xor_si128(_mm_xor_si128(w.sum, LOAD(last_ct)), _mm_xor_si128(y, w.z));
  /* Constant-time check: OR-fold both halves of the difference, no
     early exit. */
  d = _mm_xor_si128(enc1(rk, w.sum), tag);
  return ((unsigned long long)_mm_cvtsi128_si64(d)
          | (unsigned long long)_mm_cvtsi128_si64(_mm_unpackhi_epi64(d, d)))
         == 0;
}

value ppj_ocb_hw_seal(value rk, value ctx, value nonce, value nonce_pos, value src,
                      value src_pos, value src_len, value dst, value dst_pos)
{
  ocb_seal(Bytes_val(rk), Bytes_val(ctx), Bytes_val(nonce) + Long_val(nonce_pos),
           Bytes_val(src) + Long_val(src_pos), Long_val(src_len),
           Bytes_val(dst) + Long_val(dst_pos));
  return Val_unit;
}

value ppj_ocb_hw_open(value dk, value rk, value ctx, value nonce, value nonce_pos, value src,
                      value src_pos, value body_len, value dst, value dst_pos)
{
  return Val_bool(ocb_open(Bytes_val(dk), Bytes_val(rk), Bytes_val(ctx),
                           Bytes_val(nonce) + Long_val(nonce_pos),
                           Bytes_val(src) + Long_val(src_pos), Long_val(body_len),
                           Bytes_val(dst) + Long_val(dst_pos)));
}

#else

/* No AES instructions here: aes.ml and ocb.ml never call the block or
   message stubs when ppj_aes_hw_available says false. */

value ppj_aes_hw_available(value unit)
{
  (void)unit;
  return Val_false;
}

value ppj_aes_hw_encrypt(value rk, value src, value src_pos, value dst, value dst_pos)
{
  (void)rk; (void)src; (void)src_pos; (void)dst; (void)dst_pos;
  return Val_unit;
}

value ppj_aes_hw_decrypt(value rk, value src, value src_pos, value dst, value dst_pos)
{
  (void)rk; (void)src; (void)src_pos; (void)dst; (void)dst_pos;
  return Val_unit;
}

value ppj_ocb_hw_seal(value rk, value ctx, value nonce, value nonce_pos, value src,
                      value src_pos, value src_len, value dst, value dst_pos)
{
  (void)rk; (void)ctx; (void)nonce; (void)nonce_pos; (void)src;
  (void)src_pos; (void)src_len; (void)dst; (void)dst_pos;
  return Val_unit;
}

value ppj_ocb_hw_open(value dk, value rk, value ctx, value nonce, value nonce_pos, value src,
                      value src_pos, value body_len, value dst, value dst_pos)
{
  (void)dk; (void)rk; (void)ctx; (void)nonce; (void)nonce_pos;
  (void)src; (void)src_pos; (void)body_len; (void)dst; (void)dst_pos;
  return Val_false;
}

#endif

/* Bytecode entry points for the externals with more than five
   arguments. */

value ppj_ocb_hw_seal_byte(value *argv, int argn)
{
  (void)argn;
  return ppj_ocb_hw_seal(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6],
                         argv[7], argv[8]);
}

value ppj_ocb_hw_open_byte(value *argv, int argn)
{
  (void)argn;
  return ppj_ocb_hw_open(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6],
                         argv[7], argv[8], argv[9]);
}
