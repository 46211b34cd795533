/* The hex-float component codec of the wire protocol.
 *
 * One double travels as the string OCaml's Printf "%h" prints for it
 * ("0x1.8p+1", "-0x0p+0", "0x0.0000000000001p-1022", "infinity"), or
 * as "nan:" followed by its 64 bits in lowercase hex for a NaN (the
 * "nan:%Lx" of Protocol.float_to_wire).  Both primitives are noalloc
 * and touch nothing outside the buffers they are handed.
 *
 * The decoder accepts exactly the strings the encoder produces, so for
 * those it is float_of_string's result bit for bit; it declines every
 * other spelling (uppercase, leading zeros, "0x1.80p+0", decimals,
 * "inf", underscores, ...) and leaves them to the OCaml fallback.
 */

#include <caml/mlvalues.h>

#include <stdint.h>
#include <string.h>

static const char hex_digit[16] = "0123456789abcdef";

/* The longest encoding: "-0x1.fffffffffffffp+1023" (24 bytes). */
#define HEX_MAX_LEN 24

static intnat hex_encode(unsigned char *p, double d)
{
  union { uint64_t i; double d; } u;
  unsigned char *q = p;
  uint64_t m;
  int e, k;

  u.d = d;
  m = u.i & ((UINT64_C(1) << 52) - 1);
  e = (int)((u.i >> 52) & 0x7FF);
  if (e == 0x7FF && m != 0) {
    memcpy(q, "nan:", 4);
    q += 4;
    for (k = 60; k >= 0; k -= 4) *q++ = hex_digit[(u.i >> k) & 0xF];
    return q - p;
  }
  if (u.i >> 63) *q++ = '-';
  if (e == 0x7FF) {
    memcpy(q, "infinity", 8);
    return q + 8 - p;
  }
  *q++ = '0';
  *q++ = 'x';
  if (e == 0) {
    *q++ = '0';
    if (m == 0) {
      memcpy(q, "p+0", 3);
      return q + 3 - p;
    }
    e = -1022;
  } else {
    *q++ = '1';
    e -= 1023;
  }
  if (m != 0) {
    *q++ = '.';
    for (k = 48; m & ((UINT64_C(1) << (k + 4)) - 1); k -= 4)
      *q++ = hex_digit[(m >> k) & 0xF];
  }
  *q++ = 'p';
  *q++ = e < 0 ? '-' : '+';
  if (e < 0) e = -e;
  if (e >= 1000) *q++ = (unsigned char)('0' + e / 1000);
  if (e >= 100) *q++ = (unsigned char)('0' + e / 100 % 10);
  if (e >= 10) *q++ = (unsigned char)('0' + e / 10 % 10);
  *q++ = (unsigned char)('0' + e % 10);
  return q - p;
}

/* Lowercase hex digit values, -1 for every other byte: a table lookup
   instead of range tests, which mispredict on random mantissas. */
static const signed char hex_value[256] = {
#define X16 -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1
  X16, X16, X16,
  0, 1, 2, 3, 4, 5, 6, 7, 8, 9, -1, -1, -1, -1, -1, -1,
  X16, X16,
  -1, 10, 11, 12, 13, 14, 15, -1, -1, -1, -1, -1, -1, -1, -1, -1,
  X16, X16, X16, X16, X16, X16, X16, X16, X16
#undef X16
};

/* Parse the canonical encoding in [p, end) into *bits; 0 on a decline. */
static int hex_decode(const unsigned char *p, const unsigned char *end, uint64_t *bits)
{
  uint64_t sign = 0, m = 0;
  int lead, k, v, e = 0, neg_exp, ndigits;

  if (end - p == 20 && memcmp(p, "nan:", 4) == 0) {
    uint64_t b = 0;
    for (p += 4; p < end; p++) {
      if ((v = hex_value[*p]) < 0) return 0;
      b = (b << 4) | (uint64_t)v;
    }
    /* a NaN pattern; the leading digit is then 7 or f, never 0 */
    if (((b >> 52) & 0x7FF) != 0x7FF || (b & ((UINT64_C(1) << 52) - 1)) == 0) return 0;
    *bits = b;
    return 1;
  }
  if (p < end && *p == '-') {
    sign = UINT64_C(1) << 63;
    p++;
  }
  if (end - p == 8 && memcmp(p, "infinity", 8) == 0) {
    *bits = sign | (UINT64_C(0x7FF) << 52);
    return 1;
  }
  if (end - p < 6 || p[0] != '0' || p[1] != 'x' || (p[2] != '0' && p[2] != '1')) return 0;
  lead = p[2] - '0';
  p += 3;
  if (*p == '.') {
    p++;
    for (k = 48; k >= 0 && p < end && (v = hex_value[*p]) >= 0; k -= 4, p++)
      m |= (uint64_t)v << k;
    /* 1..13 digits, the last one nonzero */
    if (m == 0 || p[-1] == '0') return 0;
  }
  if (end - p < 3 || p[0] != 'p' || (p[1] != '+' && p[1] != '-')) return 0;
  neg_exp = p[1] == '-';
  p += 2;
  ndigits = (int)(end - p);
  if (ndigits > 4 || (*p == '0' && ndigits > 1)) return 0;
  for (; p < end; p++) {
    if (*p < '0' || *p > '9') return 0;
    e = e * 10 + (*p - '0');
  }
  if (neg_exp) {
    if (e == 0) return 0;
    e = -e;
  }
  if (lead == 0) {
    /* zero is "0x0p+0"; a subnormal is "0x0.<digits>p-1022" */
    if (m == 0 ? e != 0 || neg_exp : e != -1022) return 0;
    *bits = sign | m;
    return 1;
  }
  if (e < -1022 || e > 1023) return 0;
  *bits = sign | ((uint64_t)(e + 1023) << 52) | m;
  return 1;
}

/* hex_encode buf pos d: write d at buf.[pos..] and return the length,
   or -1 when fewer than HEX_MAX_LEN bytes remain from pos. */
CAMLprim intnat caml_fpan_hex_encode(value v_buf, intnat pos, double d)
{
  if (pos < 0 || (uintnat)pos + HEX_MAX_LEN > caml_string_length(v_buf)) return -1;
  return hex_encode(Bytes_val(v_buf) + pos, d);
}

CAMLprim value caml_fpan_hex_encode_byte(value v_buf, value v_pos, value v_d)
{
  return Val_long(caml_fpan_hex_encode(v_buf, Long_val(v_pos), Double_val(v_d)));
}

/* hex_decode s i j dst slot: parse s.[i..j) into dst.(slot); false on
   a non-canonical slice, bad bounds or a slot outside the float array. */
CAMLprim value caml_fpan_hex_decode(value v_s, intnat i, intnat j, value v_dst, intnat slot)
{
  union { uint64_t i; double d; } u;
  if (i < 0 || j < i || (uintnat)j > caml_string_length(v_s)) return Val_false;
  if (Wosize_val(v_dst) == 0 || Tag_val(v_dst) != Double_array_tag || slot < 0 ||
      (uintnat)slot >= Wosize_val(v_dst) / Double_wosize)
    return Val_false;
  if (!hex_decode((const unsigned char *)String_val(v_s) + i,
                  (const unsigned char *)String_val(v_s) + j, &u.i))
    return Val_false;
  Store_double_flat_field(v_dst, slot, u.d);
  return Val_true;
}

CAMLprim value caml_fpan_hex_decode_byte(value v_s, value v_i, value v_j, value v_dst,
                                         value v_slot)
{
  return caml_fpan_hex_decode(v_s, Long_val(v_i), Long_val(v_j), v_dst, Long_val(v_slot));
}
