/*
 * The compiled row engine of repro.sw.compiled: one block of the Gotoh
 * row sweep per call, in the borders' dtype (int16 or int32).
 *
 * It is a row engine of repro.sw.kernel.sweep_protocol and computes what
 * the NumPy engines compute (_row_loop without a live window,
 * _window_loop with one), bit for bit: the same cells, the same row
 * maxima and first argmax, the same cap test, the same window rule.
 *
 * Each row is three passes over its columns [lo, hi):
 *   1. F, the diagonal term and the pre-E H row t (clamped at 0 in a
 *      local sweep), and the E-scan input Q shifted by one column,
 *      Q[j] = t[j] - open + j * ext: elementwise, so the compiler
 *      vectorises it;
 *   2. the running maximum e'[j] = max(e'[j-1], Q[j-1]), the one serial
 *      pass (INTERNALS.md section 1);
 *   3. E[j] = e'[j] - j * ext and the final H = max(t, E), with the
 *      row maximum; then a search for its first column.
 * Every intermediate is stored in the sweep dtype, so the values wrap
 * exactly where NumPy's would (build with -fwrapv).
 *
 * The file instantiates itself once per dtype: the first pass through
 * it (SW_T undefined) includes __FILE__ twice with SW_T set.
 */
#ifndef SW_T

#include <stdint.h>
#include <stdlib.h>

#define SW_MAX(a, b) ((a) > (b) ? (a) : (b))
#define SW_MIN(a, b) ((a) < (b) ? (a) : (b))

/* Python's floor division, for the window's fresh-start need. */
static int64_t sw_floordiv(int64_t a, int64_t b)
{
    int64_t q = a / b;
    if (a % b != 0 && ((a < 0) != (b < 0)))
        q -= 1;
    return q;
}

/* Diagonal steps a fresh start needs after its cell to reach best. */
static int64_t sw_fresh_need(int64_t best, int64_t match)
{
    return -sw_floordiv(-best, match) - 1;
}

#define SW_T int16_t
#define SW_TMIN INT16_MIN
#define SW_NAME mgsw_sweep_rows_i16
#include __FILE__
#undef SW_T
#undef SW_TMIN
#undef SW_NAME

#define SW_T int32_t
#define SW_TMIN INT32_MIN
#define SW_NAME mgsw_sweep_rows_i32
#include __FILE__
#undef SW_T
#undef SW_TMIN
#undef SW_NAME

#else

/*
 * Sweep rows 0..R-1 of a block W columns wide.  h_row/f_row arrive
 * holding the top borders and leave holding the bottom row.  prof is
 * the profile: row x of it starts prof_stride elements after row x-1.
 * best_out[0..2] holds the best (score, row, col) so far and is updated
 * in place.  With win[0] set, each row runs over its live window:
 * win[1..6] are LiveWindow's best, match, rows_left, cols_left, lo and
 * hi, left_open[i] whether row i's left border can be live, dead the
 * restart gap state; win[5..7] return the bottom row's live hull and
 * the cells computed.
 *
 * Returns 0, 1 once a row maximum reaches cap (the caller recomputes
 * wide), or -1 when the scratch rows cannot be allocated.
 */
int SW_NAME(const int64_t *a_codes, int64_t R, const SW_T *prof,
            int64_t prof_stride, int64_t W, SW_T *h_row, SW_T *f_row,
            const SW_T *h_left, const SW_T *e_left, int64_t corner_in,
            int64_t open_in, int64_t ext_in, int64_t dead_in, int local,
            int track_best, int64_t cap, SW_T *h_right, SW_T *e_right,
            int64_t *best_out, int64_t *win, const uint8_t *left_open,
            int64_t trim_rows)
{
    const SW_T open_ = (SW_T)open_in, ext = (SW_T)ext_in;
    const SW_T dead = (SW_T)dead_in;
    const SW_T floor_ = local ? 0 : SW_TMIN;   /* the local clamp */
    const int windowed = win[0] != 0;
    const int64_t match = win[2], rows_left = win[3], cols_left = win[4];
    int64_t lbest = win[1];
    int64_t wlo = win[5], whi = win[6];  /* the row above's live hull */
    int64_t dlo = wlo, dhi = whi;        /* columns holding non-restart values */
    int64_t need = windowed ? sw_fresh_need(lbest, match) : 0;
    int64_t best_s = best_out[0], cells = 0;
    SW_T corner = (SW_T)corner_in;
    int rc = 0;

    /* t: pre-E H; q: the E-scan, one column longer (pass 1 writes j+1). */
    SW_T *t = malloc((size_t)(2 * W + 1) * sizeof(SW_T));
    if (t == NULL)
        return -1;
    SW_T *q = t + W;

    for (int64_t i = 0; i < R; i++) {
        int64_t lo = 0, hi = W;
        if (windowed) {
            /* One step right of the row above, from column 0 too where a
             * fresh start or the left border can be live. */
            lo = wlo;
            hi = whi;
            if (lo < hi)
                hi = SW_MIN(W, hi + 1);
            int64_t fresh = 0;
            if (rows_left - i >= need)
                fresh = SW_MIN(W, SW_MAX(0, cols_left - need + 1));
            if (fresh > 0 || left_open[i]) {
                lo = 0;
                hi = SW_MAX(SW_MAX(hi, fresh), 1);
            }
            if (lo >= hi)
                lo = hi = 0;
        }
        SW_T hl = 0, e = dead, d = 0;  /* H, E left of lo; H above-left of lo */
        if (lo == 0) {
            hl = h_left[i];
            e = e_left[i];
            d = corner;
        } else if (lo < hi) {
            d = h_row[lo - 1];
        }
        int64_t row_best = INT64_MIN, row_j = -1;
        if (lo < hi) {
            const int k = (int)(hi - lo);
            const SW_T *restrict pr = prof + a_codes[i] * prof_stride + lo;
            SW_T *restrict hr = h_row + lo;
            SW_T *restrict fr = f_row + lo;
            SW_T *restrict tr = t;
            SW_T *restrict qr = q;

            /* Pass 1: F, the diagonal term, t and the shifted Q. */
            {
                SW_T b = (SW_T)(hr[0] - open_);
                SW_T f = SW_MAX(fr[0], b);
                f = (SW_T)(f - ext);
                fr[0] = f;
                SW_T h = (SW_T)(d + pr[0]);
                h = SW_MAX(h, f);
                h = SW_MAX(h, floor_);
                tr[0] = h;
                qr[1] = (SW_T)(h - open_);
                SW_T a = (SW_T)(hl - open_);
                qr[0] = (SW_T)(SW_MAX(e, a) - ext);
            }
            for (int j = 1; j < k; j++) {
                SW_T b = (SW_T)(hr[j] - open_);
                SW_T f = SW_MAX(fr[j], b);
                f = (SW_T)(f - ext);
                fr[j] = f;
                SW_T h = (SW_T)(hr[j - 1] + pr[j]);
                h = SW_MAX(h, f);
                h = SW_MAX(h, floor_);
                tr[j] = h;
                SW_T s = (SW_T)(h - open_);
                qr[j + 1] = (SW_T)(s + (SW_T)(j * ext));
            }

            /* Pass 2: the offset-form running maximum. */
            SW_T run = qr[0];
            for (int j = 1; j < k; j++) {
                SW_T v = qr[j];
                run = SW_MAX(run, v);
                qr[j] = run;
            }

            /* Pass 3: E, the final H and the row maximum. */
            SW_T top = SW_TMIN;
            for (int j = 0; j < k; j++) {
                SW_T ev = (SW_T)(qr[j] - (SW_T)(j * ext));
                SW_T h = SW_MAX(tr[j], ev);
                hr[j] = h;
                top = SW_MAX(top, h);
            }
            int j = 0;
            while (hr[j] != top)
                j++;
            row_best = top;
            row_j = lo + j;
            hl = hr[k - 1];
            e = (SW_T)(qr[k - 1] - (SW_T)((k - 1) * ext));
        }
        if (windowed) {
            if (lo < hi && hi < W) {
                /* Widen while the E leaving the window stays live: every
                 * other predecessor of the cells right of it is dead. */
                int64_t e_out = SW_MAX((int64_t)hl - open_, (int64_t)e) - ext;
                int64_t spare_r = e_out + match * (rows_left - i) - lbest;
                int64_t spare_c = e_out + match * (cols_left - hi) - lbest;
                int64_t count = 0;
                if (spare_r >= 0 && spare_c >= 0)
                    count = SW_MIN(SW_MIN(W - hi, spare_r / ext + 1),
                                   spare_c / (ext + match) + 1);
                for (int64_t s = 0; s < count; s++) {
                    h_row[hi + s] = (SW_T)(e_out - s * ext);
                    f_row[hi + s] = dead;
                }
                if (count > 0) {
                    hl = h_row[hi + count - 1];
                    e = hl;
                    hi += count;
                }
            }
            /* The row above's values outside [lo, hi) are stale. */
            for (int64_t j = dlo; j < SW_MIN(dhi, lo); j++) {
                h_row[j] = 0;
                f_row[j] = dead;
            }
            for (int64_t j = SW_MAX(dlo, hi); j < dhi; j++) {
                h_row[j] = 0;
                f_row[j] = dead;
            }
            dlo = lo;
            dhi = hi;
            cells += hi - lo;
        }
        if (hi == W) {
            h_right[i] = hl;
            e_right[i] = e;
        } else {
            h_right[i] = 0;
            e_right[i] = dead;
        }
        corner = h_left[i];
        if (row_best >= cap) {
            rc = 1;
            goto done;
        }
        if (track_best && row_best > best_s) {
            best_s = row_best;
            best_out[0] = row_best;
            best_out[1] = i;
            best_out[2] = row_j;
        }
        if (windowed) {
            if (row_best > lbest) {
                lbest = row_best;
                need = sw_fresh_need(lbest, match);
            }
            if (lo < hi && ((i + 1) % trim_rows == 0 || i == R - 1)) {
                /* Trim to the live hull, right of the next row's
                 * fresh-start prefix, which stays in any case. */
                int64_t keep = 0;
                if (rows_left - i > need && cols_left >= need)
                    keep = SW_MIN(hi, cols_left - need + 1);
                const int64_t steps = rows_left - i;
                int64_t first = -1, last = -1;
                for (int64_t j = SW_MAX(lo, keep); j < hi; j++) {
                    int64_t left = SW_MIN(cols_left - j, steps);
                    if ((int64_t)h_row[j] + match * left >= lbest) {
                        if (first < 0)
                            first = j;
                        last = j;
                    }
                }
                if (keep > lo) {
                    hi = first >= 0 ? last + 1 : keep;
                } else if (first >= 0) {
                    lo = first;
                    hi = last + 1;
                } else {
                    lo = hi = 0;
                }
            }
            if (lo < hi) {
                wlo = lo;
                whi = hi;
            } else {
                wlo = whi = 0;
            }
        }
    }
    if (windowed) {
        /* The bottom row's dead cells outside its live hull restart. */
        for (int64_t j = dlo; j < SW_MIN(dhi, wlo); j++) {
            h_row[j] = 0;
            f_row[j] = dead;
        }
        for (int64_t j = SW_MAX(dlo, whi); j < dhi; j++) {
            h_row[j] = 0;
            f_row[j] = dead;
        }
        win[5] = wlo;
        win[6] = whi;
        win[7] = cells;
    }
done:
    free(t);
    return rc;
}

#endif
