package repro.core;

import java.io.ByteArrayOutputStream;
import java.io.DataOutputStream;
import java.io.Externalizable;
import java.io.IOException;
import java.io.ObjectInput;
import java.io.ObjectOutput;
import java.io.UncheckedIOException;
import java.nio.ByteBuffer;
import java.nio.DoubleBuffer;
import java.nio.charset.StandardCharsets;
import java.util.Arrays;
import java.util.HashMap;
import java.util.Map;
import java.util.SplittableRandom;

import org.apache.spark.TaskContext;
import org.apache.spark.sql.Column;
import org.apache.spark.sql.Dataset;
import org.apache.spark.sql.Encoder;
import org.apache.spark.sql.Encoders;
import org.apache.spark.sql.Row;
import org.apache.spark.sql.expressions.Aggregator;
import org.apache.spark.sql.functions;
import scala.Tuple2;

/**
 * The per-partition step of {@code sketch_dataframe} (spark_sketch.py) as a
 * Spark aggregate over (item, weight) rows.
 *
 * <p>Each partition sums its rows exactly into an item -> weight map. When the
 * map holds more than {@code cap} items it is reduced to {@code partitionBins}
 * by the same unbiased reduction as {@code merge.reduce_counts} (priority
 * sampling; Theorem 2), and once more when the partition closes, which is when
 * Spark serializes its buffer. {@code merge} only concatenates the
 * closed partitions' records and {@code finish} returns them as one blob;
 * Python decodes them and runs the one final merge, {@code _final_merge}.
 *
 * <p>A record is big-endian: the header (long pid, long n, long rejected,
 * double t, double threshold), n estimates (double), then n items, each a long,
 * or, for string items, n UTF-8 byte lengths (int) followed by the bytes. Rows
 * with a null item or a zero weight are skipped; rows whose weight is null,
 * NaN, infinite or negative are skipped and counted as {@code rejected}, which
 * {@code sketch_dataframe} turns into an error.
 */
public final class UssPartitionSketch
    extends Aggregator<Tuple2<Object, Double>, UssPartitionSketch.Buffer, byte[]> {

  private final int partitionBins;
  private final int cap;
  private final long seed;

  public UssPartitionSketch(int partitionBins, int cap, long seed) {
    this.partitionBins = partitionBins;
    this.cap = cap;
    this.seed = seed;
  }

  /**
   * Builds the aggregate for Python: one instance per JVM, and one
   * py4j call builds a sketch's query, since each py4j call costs about a
   * millisecond.
   */
  public static final class Runner {
    /**
     * {@code df} aggregated to one row holding every partition's records,
     * over {@code itemCol} (cast to long unless {@code strings}) and
     * {@code weightCol} (cast to double; 1.0 per row when null). Python
     * collects it: py4j would copy a returned byte[] one byte at a time.
     */
    @SuppressWarnings({"unchecked", "rawtypes"})
    public Dataset<Row> sketch(Dataset<Row> df, String itemCol, String weightCol, boolean strings,
        int partitionBins, int cap, long seed) {
      Column item = strings ? functions.col(itemCol) : functions.col(itemCol).cast("long");
      Column weight = weightCol == null
          ? functions.lit(1.0) : functions.col(weightCol).cast("double");
      Encoder key = strings ? Encoders.STRING() : Encoders.LONG();
      Encoder row = Encoders.tuple(key, Encoders.DOUBLE());
      Column agg = functions.udaf(new UssPartitionSketch(partitionBins, cap, seed), row)
          .apply(item, weight);
      return df.agg(agg);
    }
  }

  @Override
  public Buffer zero() {
    return new Buffer(partitionBins, cap, seed);
  }

  @Override
  public Buffer reduce(Buffer b, Tuple2<Object, Double> row) {
    b.add(row._1(), row._2());
    return b;
  }

  @Override
  public Buffer merge(Buffer a, Buffer b) {
    a.close();
    b.close();
    a.records.writeBytes(b.records.toByteArray());
    return a;
  }

  @Override
  public byte[] finish(Buffer b) {
    b.close();
    return b.records.toByteArray();
  }

  @Override
  public Encoder<Buffer> bufferEncoder() {
    return Encoders.javaSerialization(Buffer.class);
  }

  @Override
  public Encoder<byte[]> outputEncoder() {
    return Encoders.BINARY();
  }

  /**
   * A partition's exact map while it is open; its closed records after.
   * Serializing a buffer closes it, so a partition ships at most
   * {@code partitionBins} items.
   */
  public static final class Buffer implements Externalizable {
    private int bins;
    private int cap;
    private long seed;
    private HashMap<Object, Double> acc;
    private SplittableRandom rng;
    private int pid;
    private long rejected;
    private double t;
    private double threshold;
    final ByteArrayOutputStream records = new ByteArrayOutputStream();

    /** A closed buffer, as deserialized. */
    public Buffer() {}

    Buffer(int bins, int cap, long seed) {
      this.bins = bins;
      this.cap = cap;
      this.seed = seed;
    }

    void add(Object item, Double w) {
      if (item == null) {
        return;
      }
      if (acc == null) {
        pid = TaskContext.getPartitionId();
        rng = new SplittableRandom(partitionSeed(seed, pid));
        acc = new HashMap<>();
      }
      if (w == null || !(w >= 0.0 && w < Double.POSITIVE_INFINITY)) {
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

    /** Reduces an open partition to its record; a buffer that saw no row writes none. */
    void close() {
      if (acc == null) {
        return;
      }
      if (acc.size() > bins) {
        spill();
      }
      try {
        DataOutputStream out = new DataOutputStream(records);
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
      acc = null;
    }

    @Override
    public void writeExternal(ObjectOutput out) throws IOException {
      close();
      out.writeInt(records.size());
      out.write(records.toByteArray());
    }

    @Override
    public void readExternal(ObjectInput in) throws IOException {
      byte[] bytes = new byte[in.readInt()];
      in.readFully(bytes);
      records.write(bytes);
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
    double[] sorted = new double[n];
    int nnz = 0;
    for (int i = 0; i < n; i++) {
      if (counts[i] != 0.0) {
        q[i] = counts[i] / (1.0 - rng.nextDouble());
        sorted[nnz++] = q[i];
      }
    }
    if (nnz <= m) {
      System.arraycopy(counts, 0, out, 0, n);
      return out;
    }
    Arrays.sort(sorted, 0, nnz);
    // tau is the (m+1)-th largest priority; the m larger ones are kept, and
    // ties with tau fill what the strictly larger ones leave
    double tau = sorted[nnz - m - 1];
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
