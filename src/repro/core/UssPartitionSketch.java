package repro.core;

import java.io.ByteArrayOutputStream;
import java.io.DataOutputStream;
import java.io.IOException;
import java.io.UncheckedIOException;
import java.nio.ByteBuffer;
import java.nio.DoubleBuffer;
import java.nio.charset.StandardCharsets;
import java.util.Collections;
import java.util.HashMap;
import java.util.Iterator;
import java.util.Map;
import java.util.SplittableRandom;

import org.apache.spark.TaskContext;
import org.apache.spark.sql.Dataset;
import org.apache.spark.sql.Row;
import org.apache.spark.sql.RowFactory;
import org.apache.spark.sql.catalyst.InternalRow;
import org.apache.spark.sql.types.DataTypes;
import org.apache.spark.sql.types.StructField;
import org.apache.spark.sql.types.StructType;

/**
 * The per-partition step of {@code sketch_dataframe} (spark_sketch.py): one
 * {@code mapPartitions} over the (item, weight) rows, so the whole build is
 * one Spark stage with no shuffle.
 *
 * <p>Each partition sums its rows exactly into an item -> weight map. When the
 * map holds more than {@code cap} items it is reduced to {@code partitionBins}
 * by the same unbiased reduction as {@code merge.reduce_counts} (priority
 * sampling; Theorem 2), and once more when the partition ends. The partition
 * then emits its record as one binary row; Python collects the rows, decodes
 * them and runs the one final merge, {@code _final_merge}.
 *
 * <p>A record is big-endian: the header (long pid, long n, long rejected,
 * double t, double threshold), n estimates (double), then n items, each a long,
 * or, for string items, n UTF-8 byte lengths (int) followed by the bytes. Rows
 * with a null item or a zero weight are skipped; rows whose weight is null,
 * NaN, infinite or negative are skipped and counted as {@code rejected}, which
 * {@code sketch_dataframe} turns into an error. A partition with no row of a
 * non-null item emits no record.
 */
public final class UssPartitionSketch {

  private static final StructType RECORDS = DataTypes.createStructType(
      new StructField[] {DataTypes.createStructField("record", DataTypes.BinaryType, false)});

  private UssPartitionSketch() {}

  /**
   * Builds the sketch's query for Python: one instance per JVM, and one
   * py4j call builds a sketch's query, since each py4j call costs about a
   * millisecond.
   *
   * <p>Python plans the (item, weight) projection it hands over once per
   * DataFrame object and column pair, and reuses it for every later sketch of
   * that DataFrame. Spark memoizes the projection's {@code toRdd()}, so a
   * repeated sketch does not plan the DataFrame's query again; the reused plan
   * keeps the cache state of the first sketch, so caching or unpersisting the
   * DataFrame after that changes no result.
   */
  public static final class Runner {
    /**
     * One binary row per non-empty partition of {@code rows}: its record.
     * {@code rows} is the projection, item (a long, or a string when
     * {@code strings}) then weight (a double). Python collects them: py4j would
     * copy a returned byte[] one byte at a time.
     */
    public Dataset<Row> sketch(Dataset<Row> rows, boolean strings, int partitionBins, int cap,
        long seed) {
      // the engine's own rows: no per-row decoding into objects
      return rows.sparkSession().createDataFrame(
          rows.queryExecution().toRdd().toJavaRDD()
              .mapPartitions(part -> build(part, strings, partitionBins, cap, seed)),
          RECORDS);
    }
  }

  /** One partition's (item, weight) rows to its record; none if no row has an item. */
  static Iterator<Row> build(Iterator<InternalRow> rows, boolean strings, int bins, int cap,
      long seed) {
    Buffer b = null;
    while (rows.hasNext()) {
      InternalRow r = rows.next();
      if (r.isNullAt(0)) {
        continue;
      }
      if (b == null) {
        b = new Buffer(bins, cap, seed);
      }
      // a null weight is rejected as NaN is
      b.add(strings ? r.getUTF8String(0).toString() : (Object) r.getLong(0),
          r.isNullAt(1) ? Double.NaN : r.getDouble(1));
    }
    return b == null
        ? Collections.emptyIterator()
        : Collections.singletonList(RowFactory.create((Object) b.close())).iterator();
  }

  /** A partition's exact item -> weight map, reduced when it outgrows {@code cap}. */
  static final class Buffer {
    private final int bins;
    private final int cap;
    private final int pid = TaskContext.getPartitionId();
    private final SplittableRandom rng;
    private final HashMap<Object, Double> acc = new HashMap<>();
    private long rejected;
    private double t;
    private double threshold;

    Buffer(int bins, int cap, long seed) {
      this.bins = bins;
      this.cap = cap;
      this.rng = new SplittableRandom(partitionSeed(seed, pid));
    }

    void add(Object item, double w) {
      if (!(w >= 0.0 && w < Double.POSITIVE_INFINITY)) {
        rejected++;
        return;
      }
      if (w == 0.0) {
        return; // its estimate is 0 either way; a bin would inflate C_S
      }
      t += w;
      acc.merge(item, w, Double::sum);
      if (acc.size() > cap) {
        spill();
      }
    }

    private void spill() {
      int n = acc.size();
      Object[] items = new Object[n];
      double[] counts = new double[n];
      int i = 0;
      for (Map.Entry<Object, Double> e : acc.entrySet()) {
        items[i] = e.getKey();
        counts[i++] = e.getValue();
      }
      double[] est = reduce(counts, bins, rng);
      threshold = Math.max(threshold, est[n]);
      acc.clear();
      for (i = 0; i < n; i++) {
        if (est[i] > 0.0) {
          acc.put(items[i], est[i]);
        }
      }
    }

    /** Reduces the map to {@code bins} items and returns the partition's record. */
    byte[] close() {
      if (acc.size() > bins) {
        spill();
      }
      ByteArrayOutputStream record = new ByteArrayOutputStream();
      try {
        DataOutputStream out = new DataOutputStream(record);
        out.writeLong(pid);
        out.writeLong(acc.size());
        out.writeLong(rejected);
        out.writeDouble(t);
        out.writeDouble(threshold);
        for (double v : acc.values()) {
          out.writeDouble(v);
        }
        if (!acc.isEmpty() && acc.keySet().iterator().next() instanceof String) {
          byte[][] utf8 = new byte[acc.size()][];
          int i = 0;
          for (Object k : acc.keySet()) {
            utf8[i] = ((String) k).getBytes(StandardCharsets.UTF_8);
            out.writeInt(utf8[i++].length);
          }
          for (byte[] s : utf8) {
            out.write(s);
          }
        } else {
          for (Object k : acc.keySet()) {
            out.writeLong((Long) k);
          }
        }
        out.flush();
      } catch (IOException e) {
        throw new UncheckedIOException(e);
      }
      return record.toByteArray();
    }
  }

  /** The SplitMix64 finalizer: a bijection of longs that mixes every bit. */
  static long mix64(long z) {
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L;
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL;
    return z ^ (z >>> 31);
  }

  /**
   * Seed of partition {@code pid}'s generator. Mixed, not linear in (seed, pid),
   * so that nearby sketch seeds do not share partition streams.
   */
  public static long partitionSeed(long seed, int pid) {
    return mix64(mix64(seed) + pid);
  }

  /**
   * Unbiasedly reduces {@code counts} to at most {@code m} positive entries, as
   * {@code merge.reduce_counts}: priority sampling with estimates
   * {@code max(c, tau)}. Returns n + 1 values: each input's estimate (0 when
   * dropped; zero counts are never kept) and the threshold {@code tau}.
   */
  public static double[] reduce(double[] counts, int m, SplittableRandom rng) {
    int n = counts.length;
    double[] out = new double[n + 1];
    if (n <= m) {
      System.arraycopy(counts, 0, out, 0, n);
      return out;
    }
    double[] q = new double[n];
    double[] scratch = new double[n];
    int nnz = 0;
    for (int i = 0; i < n; i++) {
      if (counts[i] != 0.0) {
        q[i] = counts[i] / (1.0 - rng.nextDouble());
        scratch[nnz++] = q[i];
      }
    }
    if (nnz <= m) {
      System.arraycopy(counts, 0, out, 0, n);
      return out;
    }
    // tau is the (m+1)-th largest priority; the m larger ones are kept, and
    // ties with tau fill what the strictly larger ones leave
    double tau = select(scratch, nnz, nnz - m - 1);
    int room = m;
    for (int i = 0; i < n; i++) {
      if (q[i] > tau) {
        out[i] = Math.max(counts[i], tau);
        room--;
      }
    }
    for (int i = 0; i < n && room > 0; i++) {
      if (counts[i] != 0.0 && q[i] == tau) {
        out[i] = tau;
        room--;
      }
    }
    out[n] = tau;
    return out;
  }

  /**
   * The {@code k}-th smallest (from 0) of {@code a[0, n)}, which it reorders:
   * Hoare's selection, expected O(n). The values must not be NaN.
   */
  public static double select(double[] a, int n, int k) {
    int lo = 0;
    int hi = n - 1;
    while (lo < hi) {
      double pivot = a[(lo + hi) >>> 1];
      int i = lo;
      int j = hi;
      while (i <= j) {
        while (a[i] < pivot) {
          i++;
        }
        while (a[j] > pivot) {
          j--;
        }
        if (i <= j) {
          double x = a[i];
          a[i++] = a[j];
          a[j--] = x;
        }
      }
      // now a[lo, j] <= pivot <= a[i, hi], and a[j+1, i) equals it
      if (k <= j) {
        hi = j;
      } else if (k >= i) {
        lo = i;
      } else {
        return a[k];
      }
    }
    return a[k];
  }

  /**
   * {@code reps} independent reductions of one count vector (big-endian doubles),
   * each rep's n + 1 outputs of {@link #reduce} as big-endian doubles: the
   * reduction's Monte-Carlo tests call this through py4j in one round trip.
   */
  public static byte[] reduceRepeatedly(byte[] counts, int m, long seed, int reps) {
    DoubleBuffer in = ByteBuffer.wrap(counts).asDoubleBuffer();
    double[] c = new double[in.remaining()];
    in.get(c);
    SplittableRandom rng = new SplittableRandom(seed);
    ByteBuffer out = ByteBuffer.allocate(reps * (c.length + 1) * Double.BYTES);
    for (int r = 0; r < reps; r++) {
      for (double v : reduce(c, m, rng)) {
        out.putDouble(v);
      }
    }
    return out.array();
  }
}
