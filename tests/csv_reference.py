"""The trajectory CSV writer as a per-field loop: the reference that
dynamics.trajectory_to_csv is held to, byte for byte.

write_csv is the CSV part of the writer that dynamics ran before it
formatted all rows in one pass, unchanged.
"""


def write_csv(traj, csv_path) -> None:
    """Write `t,i,x,y,z,w,px,py,pz,pw` rows, one repr per field."""
    lines = ["t,i,x,y,z,w,px,py,pz,pw"]
    # tolist() hands over Python floats, whose repr is the field's text
    for t, qs, ps in zip(traj.times.tolist(), traj.positions.tolist(),
                         traj.momenta.tolist()):
        for i, (q, p) in enumerate(zip(qs, ps)):
            lines.append(",".join([repr(t), str(i), *map(repr, q), *map(repr, p)]))
    with open(csv_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
