package store

// Segments returns the paths of dir's segment files, oldest first.
func Segments(dir string) ([]string, error) {
	segs, _, err := listSegments(dir)
	paths := make([]string, len(segs))
	for i, seg := range segs {
		paths[i] = seg.path
	}
	return paths, err
}
